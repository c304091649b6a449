"""Overload-resilient serving: admission control, quotas, brownout.

:class:`~repro.service.engine.QueryEngine` answers every query it is
given; under overload that is exactly wrong — an unbounded backlog turns
a throughput problem into unbounded latency for everyone.
:class:`ResilientEngine` puts an *admission controller* in front of the
engine: a bounded queue with pluggable shed policies, per-client
token-bucket quotas, per-query work budgets, and a *brownout* controller
that trades precision for capacity (widening the Arya-style epsilon band
and tightening page budgets) as queue depth and tail latency climb,
stepping back down on recovery.

The request lifecycle is fully accounted — every submission ends in
exactly one of the terminal counters, and the chaos harness
(:mod:`repro.chaos`) certifies the conservation law

    ``submitted == rejected(+quota,+shutdown) + admitted``
    ``admitted  == served + failed + shed(+evicted,+expired,+shutdown)
    + cancelled + pending + inflight``

after every soak.  Shed requests resolve their futures with
:class:`~repro.errors.AdmissionRejected` (or
:class:`~repro.errors.QuotaExceeded`); a future is **never** left
unresolved, including across :meth:`ResilientEngine.close`.

Shed policies (chosen per engine via ``shed_policy=``):

- ``"reject-newest"`` — classic bounded queue: a full queue rejects the
  incoming request.  Fair to waiters, worst for freshness.
- ``"adaptive-lifo"`` — a full queue evicts the *oldest* waiter to admit
  the newcomer, and while the backlog exceeds half the capacity workers
  serve newest-first (LIFO).  Under overload the oldest requests are the
  ones whose callers have most likely given up; serving fresh arrivals
  first keeps goodput up (the Facebook "adaptive LIFO" observation).
- ``"expired-drop"`` — FIFO, but a full queue first drops waiters whose
  queue deadline (``queue_timeout_ms``) already passed before rejecting
  the newcomer.  All policies also drop expired entries at dequeue time
  — serving a request its caller has abandoned is pure waste.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import asdict, dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.budget import Budget
from repro.core.config import QueryConfig
from repro.core.query import NNResult, resolve_config
from repro.errors import AdmissionRejected, InvalidParameterError, QuotaExceeded
from repro.obs.spans import SpanContext
from repro.service.engine import DEFAULT_CACHE_SIZE, QueryEngine
from repro.service.options import EngineOptions
from repro.service.protocol import Engine, EngineSnapshot
from repro.storage.breaker import CircuitBreaker

if TYPE_CHECKING:  # a runtime import would cycle through repro.obs
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "BrownoutController",
    "BrownoutLevel",
    "DEFAULT_LADDER",
    "ResilienceStats",
    "ResilientEngine",
    "SHED_POLICIES",
    "Served",
    "TokenBucket",
]

#: Valid admission shed policies.
SHED_POLICIES = ("reject-newest", "adaptive-lifo", "expired-drop")


class TokenBucket:
    """A thread-safe token bucket: sustained *rate*, burst of *burst*.

    Args:
        rate: Tokens replenished per second (> 0).
        burst: Bucket capacity (>= 1); the bucket starts full.
        clock: Injectable monotonic clock.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not rate > 0:
            raise InvalidParameterError(f"rate must be > 0, got {rate}")
        if not burst >= 1:
            raise InvalidParameterError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take *tokens* if available; never blocks."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
            self._last = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def __repr__(self) -> str:
        return f"TokenBucket(rate={self.rate}, burst={self.burst})"


@dataclass(frozen=True)
class BrownoutLevel:
    """One rung of the degradation ladder.

    ``epsilon`` is the *minimum* approximation slack applied at this
    level (a caller asking for more keeps more); ``max_pages`` is the
    *maximum* per-query page budget (``None`` = no tightening).  Level 0
    must be the identity (0.0, ``None``) so a healthy engine serves
    exactly what was asked.
    """

    epsilon: float
    max_pages: Optional[int]


#: Default degradation ladder: first shed precision (the epsilon band is
#: cheap accuracy currency — Maneewongvatana & Mount), then cap work.
DEFAULT_LADDER = (
    BrownoutLevel(0.0, None),
    BrownoutLevel(0.1, None),
    BrownoutLevel(0.25, 4096),
    BrownoutLevel(0.5, 1024),
    BrownoutLevel(1.0, 256),
)


class BrownoutController:
    """Steps a degradation ladder up under load, down on recovery.

    Args:
        ladder: The :class:`BrownoutLevel` rungs, mildest first; rung 0
            must be the identity.
        enter_queue_fraction: Queue occupancy (0..1) at or above which an
            observation counts as overloaded.
        exit_queue_fraction: Occupancy at or below which an observation
            counts as healthy (hysteresis band between the two).
        p99_target_ms: Optional tail-latency target; a p99 above it also
            counts as overloaded (and a healthy observation requires the
            p99 back at or under it).
        min_dwell: Seconds to sit on a rung before stepping *up* again —
            one burst must not ratchet straight to the top.
        step_down_after: Consecutive healthy observations required to
            step back *down* one rung.
        clock: Injectable monotonic clock.

    ``observe`` is called by the engine with each fresh queue/latency
    reading; ``apply`` folds the current rung into a query's config.
    Thread-safe.
    """

    def __init__(
        self,
        ladder: Sequence[BrownoutLevel] = DEFAULT_LADDER,
        enter_queue_fraction: float = 0.75,
        exit_queue_fraction: float = 0.25,
        p99_target_ms: Optional[float] = None,
        min_dwell: float = 0.25,
        step_down_after: int = 3,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        ladder = tuple(ladder)
        if not ladder:
            raise InvalidParameterError("ladder must be non-empty")
        if ladder[0].epsilon != 0.0 or ladder[0].max_pages is not None:
            raise InvalidParameterError(
                "ladder[0] must be the identity BrownoutLevel(0.0, None)"
            )
        if not 0.0 <= exit_queue_fraction < enter_queue_fraction <= 1.0:
            raise InvalidParameterError(
                "need 0 <= exit_queue_fraction < enter_queue_fraction <= 1"
            )
        if step_down_after < 1:
            raise InvalidParameterError(
                f"step_down_after must be >= 1, got {step_down_after}"
            )
        self.ladder = ladder
        self.enter_queue_fraction = enter_queue_fraction
        self.exit_queue_fraction = exit_queue_fraction
        self.p99_target_ms = p99_target_ms
        self.min_dwell = min_dwell
        self.step_down_after = step_down_after
        self._clock = clock
        self._lock = threading.Lock()
        self._level = 0
        self._last_step = clock()
        self._healthy_streak = 0
        self.step_ups = 0
        self.step_downs = 0

    @property
    def level(self) -> int:
        """Current rung index (0 = healthy / identity)."""
        return self._level

    def observe(self, queue_fraction: float, p99_ms: float) -> int:
        """Feed one load reading; returns the (possibly new) rung."""
        with self._lock:
            over_p99 = (
                self.p99_target_ms is not None and p99_ms > self.p99_target_ms
            )
            overloaded = queue_fraction >= self.enter_queue_fraction or over_p99
            healthy = (
                queue_fraction <= self.exit_queue_fraction and not over_p99
            )
            now = self._clock()
            if overloaded:
                self._healthy_streak = 0
                if (
                    self._level < len(self.ladder) - 1
                    and now - self._last_step >= self.min_dwell
                ):
                    self._level += 1
                    self._last_step = now
                    self.step_ups += 1
            elif healthy:
                self._healthy_streak += 1
                if (
                    self._healthy_streak >= self.step_down_after
                    and self._level > 0
                ):
                    self._level -= 1
                    self._last_step = now
                    self._healthy_streak = 0
                    self.step_downs += 1
            else:
                # In the hysteresis band: hold the rung, reset the streak.
                self._healthy_streak = 0
            return self._level

    def apply(self, cfg: QueryConfig) -> QueryConfig:
        """Fold the current rung into *cfg*.

        Epsilon is widened to at least the rung's (never narrowed); the
        page budget is tightened to at most the rung's (never loosened),
        preserving any caller deadline.  Because epsilon and budget are
        both part of :meth:`QueryConfig.cache_key`, a browned-out answer
        occupies its own cache tier automatically.
        """
        rung = self.ladder[self._level]
        if rung.epsilon == 0.0 and rung.max_pages is None:
            return cfg
        changes: Dict[str, Any] = {}
        if rung.epsilon > cfg.epsilon:
            changes["epsilon"] = rung.epsilon
        if rung.max_pages is not None:
            budget = cfg.budget
            if budget is None:
                changes["budget"] = Budget(max_pages=rung.max_pages)
            elif budget.max_pages is None or budget.max_pages > rung.max_pages:
                changes["budget"] = replace(budget, max_pages=rung.max_pages)
        return cfg.replace(**changes) if changes else cfg


@dataclass(frozen=True)
class Served:
    """A successfully served admission-controlled query.

    Carries the *effective* config so callers (and the chaos oracle)
    know which epsilon band / budget the answer was computed under when
    brownout degraded it below what was requested.
    """

    result: NNResult
    config: QueryConfig
    requested: QueryConfig
    wait_ms: float
    service_ms: float
    brownout_level: int

    @property
    def degraded_by_brownout(self) -> bool:
        """True if brownout changed the effective config."""
        return self.config is not self.requested and self.config != self.requested


@dataclass(frozen=True)
class ResilienceStats:
    """One consistent snapshot of a :class:`ResilientEngine`.

    The two conservation laws in the module docstring hold for every
    snapshot taken under the admission lock (the harness asserts them
    after each soak).
    """

    submitted: int
    admitted: int
    rejected_queue_full: int
    rejected_quota: int
    rejected_shutdown: int
    served: int
    failed: int
    shed_evicted: int
    shed_expired: int
    shed_shutdown: int
    cancelled: int
    pending: int
    inflight: int
    truncated_served: int
    deadline_misses: int
    queue_capacity: int
    max_queue_depth: int
    brownout_level: int
    breaker_state: int

    @property
    def conserved(self) -> bool:
        """Whether every submission is accounted for exactly once."""
        return (
            self.submitted
            == self.admitted
            + self.rejected_queue_full
            + self.rejected_quota
            + self.rejected_shutdown
        ) and (
            self.admitted
            == self.served
            + self.failed
            + self.shed_evicted
            + self.shed_expired
            + self.shed_shutdown
            + self.cancelled
            + self.pending
            + self.inflight
        )

    def as_dict(self) -> Dict[str, Any]:
        out = asdict(self)
        out["conserved"] = int(self.conserved)
        return out

    def export(self) -> Dict[str, Any]:
        """Registry-protocol alias for :meth:`as_dict`."""
        return self.as_dict()

    def render(self) -> str:
        lines = [
            f"submitted          {self.submitted:>12,}",
            f"  admitted         {self.admitted:>12,}",
            f"  rejected full    {self.rejected_queue_full:>12,}",
            f"  rejected quota   {self.rejected_quota:>12,}",
            f"  rejected closed  {self.rejected_shutdown:>12,}",
            f"served             {self.served:>12,}",
            f"  truncated        {self.truncated_served:>12,}",
            f"  deadline misses  {self.deadline_misses:>12,}",
            f"failed             {self.failed:>12,}",
            f"shed evicted       {self.shed_evicted:>12,}",
            f"shed expired       {self.shed_expired:>12,}",
            f"shed at shutdown   {self.shed_shutdown:>12,}",
            f"cancelled          {self.cancelled:>12,}",
            f"pending/inflight   {self.pending:>7,} /{self.inflight:>3,}",
            f"queue depth max    {self.max_queue_depth:>12,}"
            f"  (capacity {self.queue_capacity})",
            f"brownout level     {self.brownout_level:>12}",
            f"breaker state      {self.breaker_state:>12}",
            f"conserved          {str(self.conserved):>12}",
        ]
        return "\n".join(lines)


@dataclass
class _Request:
    """One queued admission-controlled query."""

    point: Tuple[float, ...]
    config: QueryConfig
    future: "Future[Served]"
    enqueued_at: float
    expires_at: Optional[float]
    client: Optional[str] = None
    span_ctx: Optional[SpanContext] = None
    # deque.remove uses __eq__; identity is the only sane equality here.
    __hash__ = object.__hash__
    __eq__ = object.__eq__


class ResilientEngine:
    """Admission-controlled serving over any backend :class:`Engine`.

    Args:
        tree: The index to serve — builds an inner :class:`QueryEngine`
            over it.  Mutually exclusive with *engine*.
        engine: An already-constructed backend implementing the
            :class:`~repro.service.protocol.Engine` protocol (a
            :class:`QueryEngine`, a
            :class:`~repro.shard.ShardedQueryEngine`, anything
            shape-compatible).  The wrapper takes ownership: its
            :meth:`close` closes the backend.  No ``isinstance``
            special-casing — only the protocol surface is used.
        config: Default :class:`QueryConfig`; per-submit overrides apply.
        workers: Serving worker threads (the bounded queue feeds them).
        queue_capacity: Maximum waiting requests before shedding.
        shed_policy: One of :data:`SHED_POLICIES`.
        default_budget: :class:`Budget` applied to submissions whose
            config carries none — the per-query deadline floor of the
            deployment.
        queue_timeout_ms: Queue-wait deadline; entries that wait longer
            are dropped (``"expired-drop"`` sheds them on overflow too).
        quota_rate / quota_burst: Per-client token-bucket quota (both or
            neither); clients are named by the ``client=`` submit arg.
        brownout: Optional :class:`BrownoutController` consulted per
            served query and fed queue/latency observations.
        breaker: Optional :class:`~repro.storage.breaker.CircuitBreaker`
            whose state is exported with the stats (wire the same
            instance into the :class:`~repro.rtree.disk.DiskRTree`).
        options: :class:`~repro.service.options.EngineOptions` for the
            inner engine built from *tree* (its ``workers`` field is
            forced to 1 — see below).  Only valid with *tree*: an
            *engine* carries its own.
        clock: Injectable monotonic clock (tests).

    A *tree*-built inner engine runs with ``workers=1`` — meaning *no*
    second thread pool; this class's workers call into it directly, and
    its read-write lock keeps concurrent serving safe.  (A passed-in
    *engine* keeps whatever concurrency it was built with — a sharded
    backend's worker processes are the point of wrapping it.)  A context
    manager; :meth:`close` is idempotent and resolves every remaining
    future.
    """

    def __init__(
        self,
        tree: Any = None,
        config: Optional[QueryConfig] = None,
        workers: int = 4,
        queue_capacity: int = 64,
        shed_policy: str = "reject-newest",
        default_budget: Optional[Budget] = None,
        queue_timeout_ms: Optional[float] = None,
        quota_rate: Optional[float] = None,
        quota_burst: Optional[float] = None,
        brownout: Optional[BrownoutController] = None,
        breaker: Optional[CircuitBreaker] = None,
        clock: Callable[[], float] = time.monotonic,
        engine: Optional[Engine] = None,
        options: Optional[EngineOptions] = None,
    ) -> None:
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        if queue_capacity < 1:
            raise InvalidParameterError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if shed_policy not in SHED_POLICIES:
            raise InvalidParameterError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {shed_policy!r}"
            )
        if queue_timeout_ms is not None and not queue_timeout_ms > 0:
            raise InvalidParameterError(
                f"queue_timeout_ms must be > 0, got {queue_timeout_ms}"
            )
        if (quota_rate is None) != (quota_burst is None):
            raise InvalidParameterError(
                "quota_rate and quota_burst must be set together"
            )
        if (tree is None) == (engine is None):
            raise InvalidParameterError(
                "pass exactly one of tree= or engine="
            )
        if engine is not None:
            if options is not None:
                raise InvalidParameterError(
                    "engine= carries its own execution options; drop options="
                )
            self.engine: Engine = engine
        else:
            inner = replace(options or EngineOptions(), workers=1)
            self.engine = QueryEngine(tree, config=config, options=inner)
        self._default_config = config
        self.workers = workers
        self.queue_capacity = queue_capacity
        self.shed_policy = shed_policy
        self.default_budget = default_budget
        self.queue_timeout_ms = queue_timeout_ms
        self.brownout = brownout
        self.breaker = breaker
        self._quota_rate = quota_rate
        self._quota_burst = quota_burst
        self._buckets: Dict[str, TokenBucket] = {}
        self._clock = clock
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue: Deque[_Request] = deque()
        self._closing = False
        # Counters (under self._lock).
        self._submitted = 0
        self._admitted = 0
        self._rejected_queue_full = 0
        self._rejected_quota = 0
        self._rejected_shutdown = 0
        self._served = 0
        self._failed = 0
        self._shed_evicted = 0
        self._shed_expired = 0
        self._shed_shutdown = 0
        self._cancelled = 0
        self._inflight = 0
        self._truncated_served = 0
        self._deadline_misses = 0
        self._max_queue_depth = 0
        # Recent wall-clock service latencies (ms) feeding the brownout
        # controller's p99 reading; bounded, lock-protected.
        self._recent_ms: Deque[float] = deque(maxlen=128)
        # Exported signal histograms (seconds; obs log-bucket scheme).
        # Imported here, not at module top: repro.obs.registry itself
        # imports repro.service at load time (shared bucket scheme).
        from repro.obs.registry import Histogram

        self.wait_times = Histogram("resilience_wait")
        self.service_times = Histogram("resilience_service")
        self.deadline_miss_overshoot = Histogram("resilience_deadline_miss")
        # Does the backend's query() accept a span context?  Checked once
        # here (inspect is too slow for the per-request path); duck-typed
        # so protocol-shaped test doubles without the kwarg still work.
        import inspect

        try:
            self._inner_takes_span = (
                "span_ctx"
                in inspect.signature(self.engine.query).parameters
            )
        except (TypeError, ValueError):
            self._inner_takes_span = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-resilient-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        point: Sequence[float],
        k: Optional[int] = None,
        config: Optional[QueryConfig] = None,
        budget: Optional[Budget] = None,
        client: Optional[str] = None,
        span_ctx: Optional[SpanContext] = None,
    ) -> "Future[Served]":
        """Submit one query through admission control.

        Returns a :class:`~concurrent.futures.Future` that resolves to a
        :class:`Served` record, or raises (from ``.result()``) an
        :class:`~repro.errors.AdmissionRejected` /
        :class:`~repro.errors.QuotaExceeded` if shed, or the underlying
        query error if execution failed.  Shedding *never* raises out of
        ``submit`` itself — backpressure is delivered through the
        future, so producers and the admission path stay decoupled.

        A sampled *span_ctx* rides the request: serving records
        ``resilience.queue`` (true admission-queue wait) and
        ``resilience.serve`` spans, and the context is forwarded to the
        backend when its ``query`` accepts one — so one trace crosses
        the admission layer into the engine (and, for a sharded
        backend, its worker processes).
        """
        future: "Future[Served]" = Future()
        cfg = self._effective_config(k, config)
        if budget is not None:
            cfg = cfg.replace(budget=budget)
        elif cfg.budget is None and self.default_budget is not None:
            cfg = cfg.replace(budget=self.default_budget)
        now = self._clock()
        request = _Request(
            point=tuple(float(c) for c in point),
            config=cfg,
            future=future,
            enqueued_at=now,
            expires_at=(
                now + self.queue_timeout_ms / 1000.0
                if self.queue_timeout_ms is not None
                else None
            ),
            client=client,
            span_ctx=(
                span_ctx
                if span_ctx is not None and span_ctx.sampled
                else None
            ),
        )
        with self._work:
            self._submitted += 1
            if self._closing:
                self._rejected_shutdown += 1
                future.set_exception(
                    AdmissionRejected(
                        "engine is shutting down", reason="shutdown"
                    )
                )
                return future
            if not self._check_quota_locked(client):
                self._rejected_quota += 1
                future.set_exception(
                    QuotaExceeded(f"client {client!r} exceeded its quota")
                )
                return future
            if len(self._queue) >= self.queue_capacity:
                if not self._make_room_locked(now):
                    self._rejected_queue_full += 1
                    future.set_exception(
                        AdmissionRejected(
                            f"admission queue full "
                            f"(capacity {self.queue_capacity})",
                            reason="queue_full",
                        )
                    )
                    self._observe_brownout_locked()
                    return future
            self._admitted += 1
            self._queue.append(request)
            if len(self._queue) > self._max_queue_depth:
                self._max_queue_depth = len(self._queue)
            self._work.notify()
        return future

    def query(
        self,
        point: Sequence[float],
        k: Optional[int] = None,
        config: Optional[QueryConfig] = None,
        budget: Optional[Budget] = None,
        client: Optional[str] = None,
        timeout: Optional[float] = None,
        span_ctx: Optional[SpanContext] = None,
    ) -> Served:
        """Synchronous :meth:`submit` — blocks for the served record."""
        return self.submit(
            point, k=k, config=config, budget=budget, client=client,
            span_ctx=span_ctx,
        ).result(timeout)

    def _effective_config(
        self, k: Optional[int], config: Optional[QueryConfig]
    ) -> QueryConfig:
        """Resolve a per-submit config against the serving defaults.

        Deliberately local — programming against the backend through the
        public :class:`Engine` protocol only, never its private helpers.
        A backend that exposes a ``config`` default (all in-tree engines
        do) contributes it when neither the submit nor this wrapper set
        one.
        """
        base = config
        if base is None:
            base = self._default_config
        if base is None:
            base = getattr(self.engine, "config", None)
        return resolve_config(base, k)

    # ------------------------------------------------------------------
    # Admission internals (callers hold self._lock)
    # ------------------------------------------------------------------
    def _check_quota_locked(self, client: Optional[str]) -> bool:
        if self._quota_rate is None:
            return True
        name = client if client is not None else ""
        bucket = self._buckets.get(name)
        if bucket is None:
            bucket = TokenBucket(
                self._quota_rate, self._quota_burst, clock=self._clock
            )
            self._buckets[name] = bucket
        return bucket.try_acquire()

    def _reject_locked(self, request: "_Request", exc: Exception) -> bool:
        """Resolve *request*'s future with *exc*, tolerating a client cancel.

        A client may cancel its future at any moment between enqueue and
        whichever terminal path reaches the request first (shed, expiry,
        shutdown flush).  A cancelled future refuses ``set_exception``
        with :class:`~concurrent.futures.InvalidStateError`; that race
        must neither crash the shedding path nor lose the request from
        the accounting.  Returns ``True`` when the rejection landed (the
        caller bumps its shed/shutdown counter) and ``False`` when the
        client got there first (counted under ``cancelled`` here, keeping
        the conservation law true).  Callers hold ``self._lock``.
        """
        if not request.future.cancelled():
            try:
                request.future.set_exception(exc)
                return True
            except InvalidStateError:
                pass  # cancelled between the check and the set
        # ``cancel()`` leaves the future CANCELLED; ``wait`` and
        # ``as_completed`` count it done only once its waiters are told.
        request.future.set_running_or_notify_cancel()
        self._cancelled += 1
        return False

    def _make_room_locked(self, now: float) -> bool:
        """Try to free one queue slot per the shed policy."""
        if self.shed_policy == "adaptive-lifo":
            # Evict the oldest waiter in favor of the newcomer.
            victim = self._queue.popleft()
            if self._reject_locked(
                victim,
                AdmissionRejected(
                    "evicted by a newer request under overload "
                    "(adaptive-lifo)",
                    reason="queue_full",
                ),
            ):
                self._shed_evicted += 1
            return True
        if self.shed_policy == "expired-drop":
            freed = False
            while self._queue and (
                self._queue[0].expires_at is not None
                and now >= self._queue[0].expires_at
            ):
                expired = self._queue.popleft()
                if self._reject_locked(
                    expired,
                    AdmissionRejected(
                        "queue deadline expired before execution",
                        reason="expired",
                    ),
                ):
                    self._shed_expired += 1
                freed = True
            return freed
        return False  # reject-newest

    def _dequeue(self) -> Optional[_Request]:
        """Block for the next runnable request; ``None`` means shut down."""
        with self._work:
            while True:
                while not self._queue and not self._closing:
                    self._work.wait()
                if not self._queue:
                    return None  # closing and drained
                now = self._clock()
                # Every policy drops expired waiters at dequeue: serving
                # a request its caller abandoned is pure waste.
                request = self._pop_locked()
                if (
                    request.expires_at is not None
                    and now >= request.expires_at
                ):
                    if self._reject_locked(
                        request,
                        AdmissionRejected(
                            "queue deadline expired before execution",
                            reason="expired",
                        ),
                    ):
                        self._shed_expired += 1
                    continue
                if not request.future.set_running_or_notify_cancel():
                    self._cancelled += 1
                    continue
                self._inflight += 1
                return request

    def _pop_locked(self) -> _Request:
        if (
            self.shed_policy == "adaptive-lifo"
            and len(self._queue) > self.queue_capacity // 2
        ):
            return self._queue.pop()  # newest-first while backlogged
        return self._queue.popleft()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            request = self._dequeue()
            if request is None:
                return
            self._serve(request)

    def _serve(self, request: _Request) -> None:
        started = self._clock()
        wait_s = max(0.0, started - request.enqueued_at)
        requested = request.config
        brownout = self.brownout
        effective = brownout.apply(requested) if brownout is not None else requested
        level = brownout.level if brownout is not None else 0
        ctx = request.span_ctx
        started_wall = time.time() if ctx is not None else 0.0
        if ctx is not None:
            # The queue span is backdated from the measured wait — the
            # submit path never touches the wall clock for unsampled
            # (or absent) contexts.
            ctx.add(
                "resilience.queue", started_wall - wait_s, wait_s * 1000.0,
                attrs={"policy": self.shed_policy},
            )
            serve_span = ctx.start(
                "resilience.serve", brownout=level,
                degraded=int(effective is not requested),
            )
        else:
            serve_span = None
        try:
            if ctx is not None and self._inner_takes_span:
                result = self.engine.query(
                    request.point, config=effective, span_ctx=ctx
                )
            else:
                result = self.engine.query(request.point, config=effective)
        except BaseException as exc:
            if serve_span is not None:
                serve_span.end(error=type(exc).__name__)
            with self._lock:
                self._failed += 1
                self._inflight -= 1
            request.future.set_exception(exc)
        else:
            service_s = max(0.0, self._clock() - started)
            if serve_span is not None:
                serve_span.end(truncated=int(result.stats.truncated))
            with self._lock:
                self._served += 1
                self._inflight -= 1
                if result.stats.truncated:
                    self._truncated_served += 1
                    if result.stats.truncation_reason == "deadline":
                        self._deadline_misses += 1
                self._recent_ms.append(service_s * 1000.0)
            self.wait_times.observe(wait_s)
            self.service_times.observe(service_s)
            if (
                result.stats.truncation_reason == "deadline"
                and effective.budget is not None
                and effective.budget.deadline_ms is not None
            ):
                overshoot_s = max(
                    0.0,
                    service_s - effective.budget.deadline_ms / 1000.0,
                )
                self.deadline_miss_overshoot.observe(overshoot_s)
            request.future.set_result(
                Served(
                    result=result,
                    config=effective,
                    requested=requested,
                    wait_ms=wait_s * 1000.0,
                    service_ms=service_s * 1000.0,
                    brownout_level=level,
                )
            )
        finally:
            with self._lock:
                self._observe_brownout_locked()

    def _observe_brownout_locked(self) -> None:
        if self.brownout is None:
            return
        fraction = len(self._queue) / self.queue_capacity
        recent = sorted(self._recent_ms)
        p99 = recent[int(0.99 * (len(recent) - 1))] if recent else 0.0
        self.brownout.observe(fraction, p99)

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ResilienceStats:
        """One consistent (conservation-law-true) snapshot."""
        with self._lock:
            return ResilienceStats(
                submitted=self._submitted,
                admitted=self._admitted,
                rejected_queue_full=self._rejected_queue_full,
                rejected_quota=self._rejected_quota,
                rejected_shutdown=self._rejected_shutdown,
                served=self._served,
                failed=self._failed,
                shed_evicted=self._shed_evicted,
                shed_expired=self._shed_expired,
                shed_shutdown=self._shed_shutdown,
                cancelled=self._cancelled,
                pending=len(self._queue),
                inflight=self._inflight,
                truncated_served=self._truncated_served,
                deadline_misses=self._deadline_misses,
                queue_capacity=self.queue_capacity,
                max_queue_depth=self._max_queue_depth,
                brownout_level=(
                    self.brownout.level if self.brownout is not None else 0
                ),
                breaker_state=(
                    self.breaker.state_code()
                    if self.breaker is not None
                    else 0
                ),
            )

    def snapshot(self) -> EngineSnapshot:
        """The backend's snapshot, tagged with the admission layer.

        ``backend`` composes as ``"resilient+<inner>"`` so a wrapped
        sharded engine reports ``"resilient+sharded"``; epoch and size
        pass through from the backend.
        """
        inner = self.engine.snapshot()
        detail = dict(inner.detail)
        detail.update(
            admission_workers=self.workers,
            queue_capacity=self.queue_capacity,
            shed_policy=self.shed_policy,
        )
        return EngineSnapshot(
            backend=f"resilient+{inner.backend}",
            epoch=inner.epoch,
            size=inner.size,
            detail=detail,
        )

    @property
    def draining(self) -> bool:
        """True once :meth:`close` began: new submissions are rejected."""
        with self._lock:
            return self._closing

    def liveness(self) -> Dict[str, Any]:
        """Readiness hook for front doors (``/readyz``-style probes).

        Composes the backend's own :meth:`liveness` (when it has one)
        with the admission layer's drain state: an engine that started
        closing is not ready even while its backend still drains the
        backlog, so load balancers stop routing to it first.
        """
        inner_hook = getattr(self.engine, "liveness", None)
        inner: Dict[str, Any] = (
            inner_hook() if callable(inner_hook) else {"ready": True}
        )
        with self._lock:
            draining = self._closing
            queue_depth = len(self._queue)
        out = dict(inner)
        out["ready"] = bool(inner.get("ready", True)) and not draining
        out["draining"] = draining
        out["queue_depth"] = queue_depth
        return out

    def register_metrics(
        self, registry: MetricsRegistry, prefix: str = "resilience"
    ) -> None:
        """Wire every resilience signal into a metrics registry.

        Registers the counter snapshot (shed counts, brownout level,
        breaker state gauge — all numeric, so the Prometheus exporter
        picks them up), the queue-wait and service-time histograms, and
        the deadline-miss overshoot histogram.  When the backend has a
        ``register_metrics`` hook of its own (the sharded engine's adds
        per-shard depth/request/page gauges), it is forwarded the same
        registry; otherwise the backend's ``stats()`` snapshot is
        registered under ``"engine"``.
        """
        registry.register(prefix, lambda: self.stats().as_dict())
        registry.register(f"{prefix}.wait", self.wait_times)
        registry.register(f"{prefix}.service", self.service_times)
        registry.register(
            f"{prefix}.deadline_miss", self.deadline_miss_overshoot
        )
        inner_hook = getattr(self.engine, "register_metrics", None)
        if callable(inner_hook):
            inner_hook(registry)
        else:
            inner_stats = getattr(self.engine, "stats", None)
            if callable(inner_stats):
                registry.register(
                    "engine", lambda: self.engine.stats().as_dict()
                )

    def close(self, timeout: Optional[float] = None) -> bool:
        """Drain workers, resolve every remaining future.  Idempotent.

        Workers finish the backlog (new submissions are rejected with
        reason ``"shutdown"`` the moment closing begins).  With a
        *timeout*, waits at most that long for the drain; whatever is
        still queued afterwards is flushed with shutdown rejections so
        no future is ever left pending.  Returns whether every worker
        exited.

        The join budget is split into equal per-thread slices, each
        additionally clamped to the remaining overall budget.  A wedged
        worker can therefore burn only its *own* slice — it never eats
        the budget of later joins, so the threads behind it still get
        their fair chance to exit and the honest answer (``False`` with
        a survivor) arrives within roughly ``timeout / workers`` when
        only one thread is stuck, never later than ``timeout``.
        """
        with self._work:
            self._closing = True
            self._work.notify_all()
        if timeout is None:
            for t in self._threads:
                t.join()
        else:
            slice_s = timeout / max(1, len(self._threads))
            deadline = time.monotonic() + timeout
            for t in self._threads:
                t.join(min(slice_s, max(0.0, deadline - time.monotonic())))
        drained = all(not t.is_alive() for t in self._threads)
        with self._work:
            while self._queue:
                request = self._queue.popleft()
                if self._reject_locked(
                    request,
                    AdmissionRejected(
                        "engine closed before execution", reason="shutdown"
                    ),
                ):
                    self._shed_shutdown += 1
        if drained:
            self.engine.close()
        return drained

    def __enter__(self) -> "ResilientEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ResilientEngine(workers={self.workers}, "
            f"queue={self.queue_capacity}, policy={self.shed_policy!r})"
        )
