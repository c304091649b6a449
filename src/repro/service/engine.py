"""The query engine: concurrent, cached batch serving over one index.

`QueryEngine` turns the library's one-shot :func:`repro.core.query.nearest`
call into a serving layer:

- **Concurrency** — batches fan out across a thread worker pool; every
  query runs under the read side of a read-write lock, and engine-mediated
  mutations (:meth:`QueryEngine.insert` / :meth:`QueryEngine.delete`) take
  the write side, so a query always sees a consistent tree state.
- **Result caching** — finished results are cached under
  ``(point, QueryConfig, tree epoch)``.  A mutation bumps the tree's
  epoch, instantly invalidating every cached entry; a cache hit returns
  without executing any search — zero page accesses.
- **Duplicate coalescing** — within a batch, identical query points (with
  caching enabled) execute once and share the result, the dominant win on
  clustered real-world workloads (Maneewongvatana & Mount's observation).
- **Observability** — :meth:`QueryEngine.stats` snapshots latency
  percentiles, cache hit rate, pages per query and queue depth into an
  :class:`~repro.service.stats.EngineStats`.

Example::

    from repro import QueryConfig, QueryEngine

    with QueryEngine(tree, config=QueryConfig(k=4), workers=4) as engine:
        results = engine.query_batch(points)
        print(engine.stats().render())

Thread-safety contract: all ``QueryEngine`` methods may be called from any
thread.  Mutating the tree *directly* (``tree.insert``) while queries are
in flight is not synchronized — route mutations through the engine, or
stop querying while mutating.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import Future, ThreadPoolExecutor
from threading import Lock, Thread
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import QueryConfig
from repro.core.query import NNResult, _run_query, resolve_config
from repro.errors import InvalidParameterError
from repro.obs.forensics import SlowQueryLog, SlowQueryRecord
from repro.obs.spans import SpanContext
from repro.obs.trace import Trace
from repro.packed.batch import run_packed_batch
from repro.packed.kernels import run_packed_query
from repro.service.cache import ResultCache
from repro.service.locks import ReadWriteLock
from repro.service.options import DEFAULT_CACHE_SIZE, EngineOptions
from repro.service.protocol import EngineSnapshot
from repro.service.stats import EngineStats, LatencyRecorder
from repro.storage.buffer import LruBufferPool
from repro.storage.tracker import AccessTracker, CountingTracker, ShardedTracker

__all__ = ["QueryEngine", "DEFAULT_CACHE_SIZE"]

#: Miss sentinel for cache probes: an ``NNResult`` is never ``None``, but
#: probing with a private object keeps the hit test correct even for
#: falsy cached values (e.g. an empty result, which has ``len() == 0``).
_CACHE_MISS = object()


class QueryEngine:
    """Thread-safe k-NN serving over a read-only tree snapshot.

    Args:
        tree: The index to serve — an in-memory
            :class:`~repro.rtree.tree.RTree` or a read-only
            :class:`~repro.rtree.disk.DiskRTree`.
        config: Default :class:`QueryConfig` for every query; per-call
            ``k=`` / ``config=`` override it.
        workers: Worker threads for :meth:`query_batch`.  ``1`` executes
            in the calling thread (no pool), preserving strictly
            sequential semantics.
        cache_size: Result-cache capacity; ``0`` disables caching *and*
            duplicate coalescing (every query executes).
        buffer_pages: Per-worker LRU page-buffer capacity; ``0`` means
            plain counting (every logical access is a physical read).
            Workers never share a pool, so page accounting needs no locks
            and is never double-counted
            (:class:`~repro.storage.tracker.ShardedTracker`).
        packed: Serve queries through the tree's
            :class:`~repro.packed.PackedTree` compile (see
            :mod:`repro.packed`) instead of the object-graph kernels.
            Results, stats and page accounting are identical; latency is
            typically ~3x lower.  The compile is epoch-keyed: the first
            query after a mutation rebuilds it (under the read lock),
            subsequent queries share it.  Queries whose config carries an
            ``object_distance_sq`` hook fall back to the object kernels
            automatically — exact object distance needs payloads on the
            hot path.
        slow_query_ms: Slow-query threshold in milliseconds.  When set,
            every *executed* query is traced (tail sampling) and queries
            at or above the threshold are preserved — full trace included
            — in :attr:`slow_queries`, a bounded
            :class:`~repro.obs.SlowQueryLog` ring buffer.  ``None`` (the
            default) disables forensics entirely; cache hits execute no
            search and are never logged.
        slow_log: Ring-buffer capacity of :attr:`slow_queries` (only
            meaningful with *slow_query_ms*).
        options: An :class:`~repro.service.options.EngineOptions` bundle
            carrying all of the above execution knobs at once.  Explicit
            keyword arguments override matching option fields, so the
            legacy spellings keep working unchanged.

    The engine itself never copies the tree: it relies on the tree's
    mutation epoch (see :meth:`~repro.rtree.tree.RTree.snapshot`) for
    cache invalidation and on its read-write lock for isolation.
    """

    def __init__(
        self,
        tree: Any,
        config: Optional[QueryConfig] = None,
        workers: Optional[int] = None,
        cache_size: Optional[int] = None,
        buffer_pages: Optional[int] = None,
        packed: Optional[bool] = None,
        slow_query_ms: Optional[float] = None,
        slow_log: Optional[int] = None,
        options: Optional[EngineOptions] = None,
    ) -> None:
        opts = (options if options is not None else EngineOptions()).merged(
            workers=workers,
            cache_size=cache_size,
            buffer_pages=buffer_pages,
            packed=packed,
            slow_query_ms=slow_query_ms,
            slow_log=slow_log,
        )
        if opts.packed and not hasattr(tree, "packed"):
            raise InvalidParameterError(
                f"packed=True needs a tree with a .packed() compile; "
                f"{type(tree).__name__} has none"
            )
        self.tree = tree
        self.options = opts
        self.packed = opts.packed
        self.config = config if config is not None else QueryConfig()
        self.workers = opts.workers
        self.cache = ResultCache(opts.cache_size)
        if opts.buffer_pages > 0:
            pages = opts.buffer_pages
            shard_factory: Callable[[], AccessTracker] = (
                lambda: LruBufferPool(pages)
            )
        else:
            shard_factory = CountingTracker
        self.tracker = ShardedTracker(shard_factory)
        self._rwlock = ReadWriteLock()
        self._latency = LatencyRecorder()
        self._executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=opts.workers, thread_name_prefix="repro-engine"
            )
            if opts.workers > 1
            else None
        )
        self._closed = False
        # Monotonic per-request ids; itertools.count is atomic under the
        # GIL, so workers can draw ids without the stats lock.
        self._request_ids = itertools.count(1)
        self.slow_query_ms = opts.slow_query_ms
        #: Ring buffer of slow-query forensics (``None`` unless enabled).
        self.slow_queries: Optional[SlowQueryLog] = (
            SlowQueryLog(opts.slow_log)
            if opts.slow_query_ms is not None
            else None
        )
        self._stats_lock = Lock()
        self._queries = 0
        self._cache_hits = 0
        self._executed = 0
        self._failures = 0
        self._pages_total = 0
        self._objects_total = 0
        self._inflight = 0
        self._max_queue_depth = 0
        self._last_epoch = self._tree_epoch()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        point: Sequence[float],
        k: Optional[int] = None,
        config: Optional[QueryConfig] = None,
        trace: Optional[Trace] = None,
        span_ctx: Optional[SpanContext] = None,
    ) -> NNResult:
        """Answer one k-NN query (cache-first, then search).

        *config* overrides the engine default for this call; *k*
        overrides either.  Cache hits return the stored
        :class:`~repro.core.query.NNResult` — treat results as
        immutable.  Pass a :class:`~repro.obs.Trace` via *trace* to
        capture this query's event stream (the engine stamps it with the
        request id and records the cache verdict; a cache hit executes no
        search, so the trace then holds only the ``cache`` event).

        *span_ctx* is the request-scoped trace context (a sampled one
        records ``engine.query``/``kernel`` spans — wall-clock stages,
        not kernel events; the two layers compose).  ``None`` costs one
        ``is None`` test on the hot path.
        """
        self._ensure_open()
        cfg = self._effective_config(k, config)
        return self._serve(point, cfg, trace, span_ctx)

    def submit(
        self,
        point: Sequence[float],
        k: Optional[int] = None,
        config: Optional[QueryConfig] = None,
        span_ctx: Optional[SpanContext] = None,
    ) -> "Future[NNResult]":
        """Asynchronous :meth:`query`: a future that never hangs.

        With ``workers > 1`` the query runs on the pool; with one worker
        it executes inline and the returned future is already resolved.
        Part of the :class:`~repro.service.protocol.Engine` contract.
        """
        self._ensure_open()
        cfg = self._effective_config(k, config)
        executor = self._executor
        if executor is not None:
            return executor.submit(self._serve, point, cfg, None, span_ctx)
        future: "Future[NNResult]" = Future()
        try:
            future.set_result(self._serve(point, cfg, None, span_ctx))
        except BaseException as exc:  # delivered through the future
            future.set_exception(exc)
        return future

    def query_batch(
        self,
        points: Sequence[Sequence[float]],
        k: Optional[int] = None,
        config: Optional[QueryConfig] = None,
        span_ctxs: Optional[Sequence[Optional[SpanContext]]] = None,
    ) -> List[NNResult]:
        """Answer a batch of queries, one result per point, in order.

        With ``workers > 1`` queries run on the pool; identical points
        are coalesced into a single execution when caching is enabled
        (the duplicates count as cache hits).  Results are byte-identical
        to a sequential :func:`repro.core.query.nearest` loop over the
        same tree state.

        *span_ctxs* (aligned with *points*) threads per-request trace
        contexts through the batch; a request coalesced onto another
        point's execution records a single ``engine.query`` span with
        ``cache=coalesced``.
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
        ctxs: Sequence[Optional[SpanContext]] = (
            span_ctxs if span_ctxs is not None else [None] * len(points)
        )
        # Snapshot the executor once: a concurrent shutdown() may null
        # the attribute between the check and the submits.
        executor = self._executor
        if executor is None:
            if (
                self.packed
                and len(points) >= 2
                and cfg.algorithm == "best-first"
                and cfg.budget is None
                and cfg.object_distance_sq is None
                and self.slow_queries is None
            ):
                # Same-config window on a packed single-worker engine:
                # one shared slab traversal (repro.packed.batch) under
                # one read-lock acquisition.  Results and counters are
                # identical to the sequential loop below; per-query
                # latency is recorded as the batch mean.
                return self._serve_batched(points, cfg, span_ctxs)
            return [
                self._serve(p, cfg, None, ctx)
                for p, ctx in zip(points, ctxs)
            ]

        if self.cache.capacity == 0:
            # No caching, no coalescing: every occurrence executes, in
            # the legacy one-search-per-point accounting.
            submitted = [
                executor.submit(self._serve, p, cfg, None, ctx)
                for p, ctx in zip(points, ctxs)
            ]
            return [future.result() for future in submitted]

        # Coalesce duplicates: the first occurrence of each point runs,
        # later occurrences share its future (and count as cache hits).
        primary: Dict[Tuple[float, ...], Any] = {}
        slots: List[Tuple[Tuple[float, ...], bool, Optional[SpanContext]]] = []
        for p, ctx in zip(points, ctxs):
            key = _point_key(p)
            if key not in primary:
                # The first occurrence's span context rides the execution.
                primary[key] = executor.submit(self._serve, p, cfg, None, ctx)
                slots.append((key, False, None))
            else:
                slots.append((key, True, ctx))
        results: List[NNResult] = []
        for key, coalesced, ctx in slots:
            start_s = time.time() if ctx is not None else 0.0
            result = primary[key].result()
            if coalesced:
                self._count_coalesced_hit()
                if ctx is not None and ctx.sampled:
                    ctx.add(
                        "engine.query", start_s,
                        (time.time() - start_s) * 1000.0,
                        attrs={"cache": "coalesced"},
                    )
            results.append(result)
        return results

    # ------------------------------------------------------------------
    # Mutations (engine-mediated, exclusive)
    # ------------------------------------------------------------------
    def insert(self, rect: Any, payload: Any = None) -> None:
        """Insert into the underlying tree under the write lock.

        The tree bumps its epoch, so every cached result is invalidated.
        """
        self._require_mutable("insert")
        with self._rwlock.write():
            self.tree.insert(rect, payload)

    def delete(self, rect: Any, payload: Any = None) -> bool:
        """Delete from the underlying tree under the write lock."""
        self._require_mutable("delete")
        with self._rwlock.write():
            return self.tree.delete(rect, payload)

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        """An immutable :class:`EngineStats` snapshot."""
        p50, p95, p99, mean, max_ms = self._latency.snapshot_ms()
        with self._stats_lock:
            executed = self._executed
            return EngineStats(
                queries=self._queries,
                cache_hits=self._cache_hits,
                executed=executed,
                cache_invalidated=self.cache.stats.invalidated,
                epoch=self._tree_epoch(),
                workers=self.workers,
                latency_p50_ms=p50,
                latency_p95_ms=p95,
                latency_p99_ms=p99,
                latency_mean_ms=mean,
                latency_max_ms=max_ms,
                pages_per_query=(
                    self._pages_total / executed if executed else 0.0
                ),
                physical_reads=self.tracker.physical_reads(),
                objects_per_query=(
                    self._objects_total / executed if executed else 0.0
                ),
                max_queue_depth=self._max_queue_depth,
                failures=self._failures,
            )

    def snapshot(self) -> EngineSnapshot:
        """What this engine is serving (the Engine-protocol view)."""
        try:
            size = len(self.tree)
        except TypeError:  # trees without __len__ (test doubles)
            size = 0
        return EngineSnapshot(
            backend="thread",
            epoch=self._tree_epoch(),
            size=size,
            detail={
                "workers": self.workers,
                "packed": self.packed,
                "cache_capacity": self.cache.capacity,
            },
        )

    def liveness(self) -> Dict[str, Any]:
        """Readiness hook for front doors (``/readyz``-style probes).

        ``ready`` is the load-balancer verdict: ``True`` while the
        engine accepts queries, ``False`` once shutdown began.  The
        other fields are diagnostic context for the probe body.
        """
        return {
            "ready": not self._closed,
            "backend": "thread",
            "epoch": self._tree_epoch(),
            "workers": self.workers,
        }

    def shutdown(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting queries and drain in-flight work.  Idempotent.

        New :meth:`query` / :meth:`query_batch` calls fail immediately
        once shutdown begins; work already submitted to the pool drains
        to completion (queued futures resolve — never a hang).  With
        ``timeout=None`` this blocks until the pool is fully drained and
        returns ``True``.  With a timeout, it waits at most that many
        seconds and returns whether the drain completed; an unfinished
        drain keeps running in the background and a later ``shutdown()``
        can be used to wait again.
        """
        self._closed = True
        executor = self._executor
        if executor is None:
            return True
        if timeout is None:
            executor.shutdown(wait=True)
            self._executor = None
            return True
        # Bounded drain: ThreadPoolExecutor.shutdown has no timeout of
        # its own, so park the blocking wait on a helper thread and join
        # that with the deadline.
        waiter = Thread(
            target=executor.shutdown,
            kwargs={"wait": True},
            name="repro-engine-drain",
            daemon=True,
        )
        waiter.start()
        waiter.join(timeout)
        drained = not waiter.is_alive()
        if drained:
            self._executor = None
        return drained

    def close(self) -> None:
        """Shut the worker pool down (full drain).  Idempotent."""
        self.shutdown()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"QueryEngine(tree={self.tree!r}, workers={self.workers}, "
            f"cache={self.cache.capacity}, config={self.config.describe()!r})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _tree_epoch(self) -> int:
        return getattr(self.tree, "epoch", 0)

    def _effective_config(
        self, k: Optional[int], config: Optional[QueryConfig]
    ) -> QueryConfig:
        base = config if config is not None else self.config
        return resolve_config(base, k=k)

    def _ensure_open(self) -> None:
        if self._closed:
            raise InvalidParameterError("QueryEngine is closed")

    def _require_mutable(self, operation: str) -> None:
        if not hasattr(self.tree, operation):
            raise InvalidParameterError(
                f"{operation} requires a mutable tree; "
                f"{type(self.tree).__name__} is read-only"
            )

    def _serve(
        self,
        point: Sequence[float],
        cfg: QueryConfig,
        trace: Optional[Trace] = None,
        span_ctx: Optional[SpanContext] = None,
    ) -> NNResult:
        """One query: read lock, cache probe, search, cache fill.

        With slow-query forensics enabled, every executed query runs with
        a trace (the caller's, or a tail-sampling one created here); if
        the final latency crosses the threshold, the trace and headline
        stats are preserved in :attr:`slow_queries`.

        Deliberately no ``_ensure_open`` here: the open check lives in
        the public entry points, so work already queued on the pool when
        :meth:`shutdown` begins still drains to a real answer instead of
        failing spuriously.
        """
        start = time.perf_counter()
        self._enter_flight()
        request_id = next(self._request_ids)
        if trace is not None:
            trace.request_id = request_id
        if span_ctx is not None and not span_ctx.sampled:
            span_ctx = None
        serve_span = (
            span_ctx.start("engine.query", backend="thread")
            if span_ctx is not None
            else None
        )
        record_trace: Optional[Trace] = None
        executed: Optional[NNResult] = None
        try:
            with self._rwlock.read():
                epoch = self._observe_epoch()
                use_cache = self.cache.capacity > 0
                if use_cache:
                    key = (_point_key(point), cfg.cache_key(), epoch)
                    cached = self.cache.get(key, _CACHE_MISS)
                    if cached is not _CACHE_MISS:
                        self._count_hit()
                        if trace is not None:
                            trace.cache("hit")
                        if serve_span is not None:
                            serve_span.annotate(cache="hit", epoch=epoch)
                        return cached
                if trace is not None:
                    trace.cache("miss")
                    record_trace = trace
                elif self.slow_queries is not None:
                    record_trace = Trace(request_id=request_id)
                if serve_span is not None:
                    kernel_t0 = time.perf_counter()
                    kernel_s = time.time()
                if self.packed and cfg.object_distance_sq is None:
                    # tree.packed() is epoch-keyed: first query after a
                    # mutation recompiles (under this read lock, so the
                    # tree is stable), later queries share the compile.
                    result = run_packed_query(
                        self.tree.packed(), point, cfg, self.tracker,
                        record_trace,
                    )
                else:
                    result = _run_query(
                        self.tree, point, cfg, self.tracker, record_trace
                    )
                if serve_span is not None:
                    stats = result.stats
                    span_ctx.add(
                        "kernel", kernel_s,
                        (time.perf_counter() - kernel_t0) * 1000.0,
                        parent=serve_span.id,
                        attrs={
                            "pages": stats.nodes_accessed,
                            "objects": stats.objects_examined,
                            "p1": stats.pruning.p1_pruned,
                            "p3": stats.pruning.p3_pruned,
                            "truncated": int(stats.truncated),
                        },
                    )
                    serve_span.annotate(
                        cache="miss", epoch=epoch,
                        pages=stats.nodes_accessed,
                    )
                if use_cache and not result.stats.truncated:
                    # Truncated results are never cached: where the
                    # search stopped depends on wall-clock luck (for
                    # deadline budgets), and a partial answer must not
                    # outlive the overload that produced it.  The cache
                    # key's budget component already isolates tiers;
                    # this keeps even same-budget callers fresh.
                    self.cache.put(key, result)
                self._count_executed(result)
                executed = result
                return result
        except BaseException as exc:
            # Surface worker failures in the stats (the future still
            # carries the exception to its caller — never a hang).
            with self._stats_lock:
                self._failures += 1
            if serve_span is not None:
                serve_span.annotate(error=type(exc).__name__)
            raise
        finally:
            if serve_span is not None:
                serve_span.end()
            elapsed = time.perf_counter() - start
            self._latency.record(elapsed)
            self._exit_flight()
            if (
                executed is not None
                and self.slow_queries is not None
                and elapsed * 1000.0 >= self.slow_query_ms
            ):
                self.slow_queries.add(
                    SlowQueryRecord(
                        request_id=request_id,
                        latency_ms=elapsed * 1000.0,
                        config=cfg.describe(),
                        stats=executed.stats.as_dict(),
                        trace=record_trace,
                    )
                )

    def _serve_batched(
        self,
        points: Sequence[Sequence[float]],
        cfg: QueryConfig,
        span_ctxs: Optional[Sequence[Optional[SpanContext]]] = None,
    ) -> List[NNResult]:
        """One batched traversal for a whole same-config window.

        The batched mirror of a sequential :meth:`_serve` loop: one read
        lock, per-point cache probes, then a single
        :func:`run_packed_batch` traversal for every miss.  With caching
        enabled, later occurrences of a point already executed in this
        window fill from the first occurrence and count as hits —
        exactly what the sequential loop's probe-after-fill would do.
        Counters (queries / hits / executed / pages) match the
        sequential loop; per-query latency is recorded as the batch
        mean, since the traversals genuinely overlap.  Each sampled
        span context receives one ``engine.batch`` span — the window
        shares a traversal, so per-point kernel spans would be fiction.
        """
        start = time.perf_counter()
        start_s = time.time() if span_ctxs is not None else 0.0
        n = len(points)
        self._enter_flight()
        try:
            with self._rwlock.read():
                epoch = self._observe_epoch()
                use_cache = self.cache.capacity > 0
                results: List[Optional[NNResult]] = [None] * n
                misses: List[int] = []
                miss_keys: List[Any] = []
                dups: List[Tuple[int, int]] = []  # (follower, first)
                if use_cache:
                    ckey = cfg.cache_key()
                    first_of: Dict[Any, int] = {}
                    for i, p in enumerate(points):
                        key = (_point_key(p), ckey, epoch)
                        cached = self.cache.get(key, _CACHE_MISS)
                        if cached is not _CACHE_MISS:
                            self._count_hit()
                            results[i] = cached
                            continue
                        j = first_of.get(key)
                        if j is None:
                            first_of[key] = i
                            misses.append(i)
                            miss_keys.append(key)
                        else:
                            dups.append((i, j))
                else:
                    misses = list(range(n))
                    miss_keys = [None] * n
                if misses:
                    executed = run_packed_batch(
                        self.tree.packed(),
                        [points[i] for i in misses],
                        cfg,
                        self.tracker,
                    )
                    for i, key, result in zip(misses, miss_keys, executed):
                        results[i] = result
                        if use_cache and not result.stats.truncated:
                            self.cache.put(key, result)
                        self._count_executed(result)
                for i, j in dups:
                    results[i] = results[j]
                    self._count_coalesced_hit()
                if span_ctxs is not None:
                    missed = set(misses)
                    batch_ms = (time.perf_counter() - start) * 1000.0
                    for i, ctx in enumerate(span_ctxs):
                        if ctx is not None and ctx.sampled:
                            ctx.add(
                                "engine.batch", start_s, batch_ms,
                                attrs={
                                    "window": n,
                                    "cache": (
                                        "miss" if i in missed else "hit"
                                    ),
                                    "epoch": epoch,
                                },
                            )
                return results  # type: ignore[return-value]
        except BaseException:
            with self._stats_lock:
                self._failures += 1
            raise
        finally:
            elapsed = time.perf_counter() - start
            per_query = elapsed / n if n else 0.0
            for _ in range(n):
                self._latency.record(per_query)
            self._exit_flight()

    def _observe_epoch(self) -> int:
        """Current tree epoch; purge cache entries from older epochs."""
        epoch = self._tree_epoch()
        if epoch != self._last_epoch:
            with self._stats_lock:
                changed = epoch != self._last_epoch
                self._last_epoch = epoch
            if changed and self.cache.capacity > 0:
                self.cache.invalidate_epoch(epoch)
        return epoch

    def _enter_flight(self) -> None:
        with self._stats_lock:
            self._inflight += 1
            if self._inflight > self._max_queue_depth:
                self._max_queue_depth = self._inflight

    def _exit_flight(self) -> None:
        with self._stats_lock:
            self._inflight -= 1

    def _count_hit(self) -> None:
        with self._stats_lock:
            self._queries += 1
            self._cache_hits += 1

    def _count_coalesced_hit(self) -> None:
        # A batch duplicate that shared another occurrence's execution:
        # it was answered without a search, which is what "hit" means.
        self._count_hit()

    def _count_executed(self, result: NNResult) -> None:
        with self._stats_lock:
            self._queries += 1
            self._executed += 1
            self._pages_total += result.stats.nodes_accessed
            self._objects_total += result.stats.objects_examined


def _point_key(point: Sequence[float]) -> Tuple[float, ...]:
    """Hashable, type-normalized form of a query point."""
    return tuple(float(c) for c in point)
