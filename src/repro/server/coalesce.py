"""Micro-batch request coalescing for the serving front door.

Singleton ``/query`` arrivals that overlap are collected per
:class:`~repro.core.config.QueryConfig` and dispatched as *one* engine
batch — the serving-side analogue of the packed batched MINDIST
evaluation: one thread hop and one kernel entry amortized over the
whole window instead of per request.

The window is clocked by the engine, not by a timer (natural batching):

- **idle** — a window opened while no batch is in flight closes at the
  end of the current event-loop pass: it shares with whatever arrived
  in that pass and waits for nobody else;
- **busy** — a window opened while a batch is in flight keeps
  collecting until the last in-flight batch has been handed back, then
  every open window is released on the next loop pass;
- **ceiling** — ``max_wait_ms`` bounds the wait of a busy window (the
  engine may be slower than that), and ``max_batch`` arrivals close any
  window at once.

Deadlines stay honored: a request whose budget cannot survive the
longest possible wait (``deadline_ms <= max_wait_ms``) must not sit in
a window — :meth:`Coalescer.bypasses` tells the front door to dispatch
it directly instead.

All coalescer state is confined to the event-loop thread; only the
batch execution itself runs on the executor.
"""

from __future__ import annotations

import asyncio
import inspect
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import QueryConfig
from repro.obs.spans import SpanContext

__all__ = ["Coalescer"]

#: Per-entry outcome tags produced by the executor-side batch runner.
_OK, _ERR = "ok", "err"

#: One waiting request: (point, waiter future, span context or None,
#: enqueue wall time — 0.0 unless the context is sampled).
_Entry = Tuple[Tuple[float, ...], asyncio.Future, Optional[SpanContext], float]


class _Window:
    __slots__ = ("cfg", "entries", "handle")

    def __init__(self, cfg: QueryConfig) -> None:
        self.cfg = cfg
        self.entries: List[_Entry] = []
        self.handle: Optional[asyncio.Handle] = None


class Coalescer:
    """Collects singleton queries into engine batches.

    Args:
        engine: Any :class:`~repro.service.protocol.Engine`.  A backend
            exposing ``query_batch`` (thread or sharded engine) gets the
            packed batch path; otherwise the window pipelines through
            ``submit`` (one admission verdict per request — a resilient
            backend sheds individually even inside a window).
        executor: Where batch dispatch runs (the front door's pool).
        max_wait_ms: Ceiling on how long a request may sit in a window
            while the engine is busy; an idle engine imposes no wait.
        max_batch: Window size that triggers an immediate flush.
    """

    def __init__(
        self,
        engine: Any,
        executor: Any,
        *,
        max_wait_ms: float = 1.0,
        max_batch: int = 64,
    ) -> None:
        if max_wait_ms <= 0:
            raise ValueError(f"max_wait_ms must be > 0, got {max_wait_ms}")
        if max_batch < 2:
            raise ValueError(f"max_batch must be >= 2, got {max_batch}")
        self.engine = engine
        self.executor = executor
        self.max_wait_ms = max_wait_ms
        self.max_batch = max_batch
        self._query_batch = getattr(engine, "query_batch", None)
        # Span-kwarg support is probed once — inspect per request would
        # dominate the event-loop hot path; duck-typed doubles without
        # the kwargs still work (spans are simply not forwarded).
        self._batch_takes_spans = _accepts(self._query_batch, "span_ctxs")
        self._submit_takes_span = _accepts(
            getattr(engine, "submit", None), "span_ctx"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Keyed by cfg.cache_key(), computed ONCE per arriving request:
        # hashing the full frozen QueryConfig dataclass walks every field
        # (pruning, budget, ...) on every dict operation, and the old
        # keying paid that three times per request (lookup, insert,
        # flush-time pop) on the event-loop hot path.
        self._windows: Dict[Tuple, _Window] = {}
        self._outstanding: set = set()
        # Counters (event-loop thread only).
        self.requests = 0
        self.windows = 0
        self.flush_full = 0
        self.flush_timer = 0
        self.flush_drain = 0
        self.coalesced_requests = 0  # requests sharing a window with others
        self.largest_batch = 0
        self.flushed_requests = 0  # requests whose window already closed
        self.bypassed = 0  # deadline-too-tight dispatches (note_bypass)

    # ------------------------------------------------------------------
    # Submission (event-loop thread)
    # ------------------------------------------------------------------
    def bypasses(self, cfg: QueryConfig) -> bool:
        """True when *cfg*'s deadline cannot survive the window wait."""
        budget = cfg.budget
        return (
            budget is not None
            and budget.deadline_ms is not None
            and budget.deadline_ms <= self.max_wait_ms
        )

    def note_bypass(self) -> None:
        """Record one deadline-too-tight direct dispatch (front door)."""
        self.bypassed += 1

    async def submit(
        self,
        point: Sequence[float],
        cfg: QueryConfig,
        span_ctx: Optional[SpanContext] = None,
    ) -> Any:
        """Queue one query into the current window; await its answer.

        The returned value is whatever the engine produced for it — an
        ``NNResult`` (thread/sharded backends) or a ``Served`` record
        (resilient backend); per-request shed verdicts raise here
        exactly as they would from a direct ``submit``.

        A sampled *span_ctx* gets a ``coalesce.wait`` span (enqueue to
        window close — the company-waiting cost this layer trades for
        batch amortization) and rides into the engine dispatch when the
        backend accepts span contexts.
        """
        loop = asyncio.get_running_loop()
        self._loop = loop
        future: asyncio.Future = loop.create_future()
        key = cfg.cache_key()  # once per request; reused below and in _flush
        window = self._windows.get(key)
        if window is None:
            window = _Window(cfg)
            self._windows[key] = window
            self.windows += 1
            if self._outstanding:
                # Busy: collect until _distribute releases us, or the
                # ceiling — whichever comes first.
                window.handle = loop.call_later(
                    self.max_wait_ms / 1000.0, self._flush, key, "timer"
                )
            else:
                # Idle: share with this loop pass's arrivals only.
                window.handle = loop.call_soon(self._flush, key, "timer")
        if span_ctx is not None and not span_ctx.sampled:
            span_ctx = None
        window.entries.append(
            (
                tuple(float(c) for c in point),
                future,
                span_ctx,
                time.time() if span_ctx is not None else 0.0,
            )
        )
        self.requests += 1
        if len(window.entries) >= self.max_batch:
            self._flush(key, "full")
        return await future

    @property
    def pending(self) -> int:
        """Requests currently waiting in open windows."""
        return sum(len(w.entries) for w in self._windows.values())

    def stats(self) -> Dict[str, Any]:
        flushes = self.flush_full + self.flush_timer + self.flush_drain
        mean_batch = self.flushed_requests / flushes if flushes else 0.0
        return {
            "requests": self.requests,
            "windows": self.windows,
            "flush_full": self.flush_full,
            "flush_timer": self.flush_timer,
            "flush_drain": self.flush_drain,
            "coalesced_requests": self.coalesced_requests,
            "largest_batch": self.largest_batch,
            "pending": self.pending,
            "bypassed": self.bypassed,
            "mean_batch": mean_batch,
            # How full windows run on average, in [0, 1]: how much
            # arrivals overlap.  Low is free (a lone request does not
            # wait); near 1 means windows close on max_batch and could
            # be larger.
            "window_fill_rate": (
                mean_batch / self.max_batch if flushes else 0.0
            ),
        }

    # ------------------------------------------------------------------
    # Flushing (event-loop thread)
    # ------------------------------------------------------------------
    def _flush(self, key: Tuple, why: str) -> None:
        window = self._windows.pop(key, None)
        if window is None or not window.entries:
            return
        if window.handle is not None:
            window.handle.cancel()
        if why == "full":
            self.flush_full += 1
        elif why == "drain":
            self.flush_drain += 1
        else:
            self.flush_timer += 1
        size = len(window.entries)
        self.flushed_requests += size
        if size > 1:
            self.coalesced_requests += size
        if size > self.largest_batch:
            self.largest_batch = size
        now_s = 0.0
        for _, _, ctx, enqueued_s in window.entries:
            if ctx is None:
                continue
            if not now_s:
                now_s = time.time()
            ctx.add(
                "coalesce.wait", enqueued_s,
                max(0.0, (now_s - enqueued_s) * 1000.0),
                attrs={"window": size, "why": why},
            )
        assert self._loop is not None
        task = self._loop.run_in_executor(
            self.executor, self._run_batch, window
        )
        self._outstanding.add(task)
        task.add_done_callback(
            lambda done, window=window: self._distribute(window, done)
        )

    def _run_batch(self, window: _Window) -> List[Tuple[str, Any]]:
        """Execute one window on the executor; one outcome per entry."""
        points = [entry[0] for entry in window.entries]
        ctxs = [entry[2] for entry in window.entries]
        if self._query_batch is not None:
            try:
                return [
                    (_OK, result)
                    for result in self._call_batch(points, ctxs, window.cfg)
                ]
            except Exception:
                if len(points) == 1:
                    raise
            # The batch is all-or-nothing, so one bad entry failed its
            # whole window: re-run one at a time for per-waiter verdicts.
            outcomes: List[Tuple[str, Any]] = []
            for point, ctx in zip(points, ctxs):
                try:
                    outcomes.append(
                        (_OK, self._call_batch([point], [ctx], window.cfg)[0])
                    )
                except Exception as exc:
                    outcomes.append((_ERR, exc))
            return outcomes
        if self._submit_takes_span and any(ctx is not None for ctx in ctxs):
            submitted = [
                self.engine.submit(point, config=window.cfg, span_ctx=ctx)
                for point, ctx in zip(points, ctxs)
            ]
        else:
            submitted = [
                self.engine.submit(point, config=window.cfg)
                for point in points
            ]
        outcomes = []
        for request_future in submitted:
            try:
                outcomes.append((_OK, request_future.result()))
            except BaseException as exc:
                outcomes.append((_ERR, exc))
        return outcomes

    def _call_batch(
        self,
        points: List[Tuple[float, ...]],
        ctxs: List[Optional[SpanContext]],
        cfg: QueryConfig,
    ) -> List[Any]:
        if self._batch_takes_spans and any(ctx is not None for ctx in ctxs):
            return self._query_batch(points, config=cfg, span_ctxs=ctxs)
        return self._query_batch(points, config=cfg)

    def _distribute(self, window: _Window, done: "asyncio.Future") -> None:
        """Resolve every waiter from the finished batch (loop thread)."""
        self._outstanding.discard(done)
        try:
            outcomes = done.result()
        except BaseException as exc:  # whole-batch failure
            outcomes = [(_ERR, exc)] * len(window.entries)
        for (_, future, _, _), (tag, value) in zip(window.entries, outcomes):
            if future.done():  # waiter gone (disconnect / cancellation)
                continue
            if tag == _OK:
                future.set_result(value)
            else:
                future.set_exception(value)
        if self._windows and not self._outstanding:
            # The engine just went idle: the windows that collected
            # behind it leave on the next loop pass.  Not from inside
            # this done-callback — the pool thread has not marked itself
            # idle yet, and dispatching now would spawn a second one.
            done.get_loop().call_soon(self._release)

    def _release(self) -> None:
        """Flush the windows that waited out a busy engine."""
        if self._outstanding:  # busy again; its _distribute releases us
            return
        for key in list(self._windows):
            self._flush(key, "timer")

    async def drain(self) -> None:
        """Flush every open window and await all dispatched batches."""
        for key in list(self._windows):
            self._flush(key, "drain")
        while self._outstanding:
            await asyncio.gather(
                *list(self._outstanding), return_exceptions=True
            )


def _accepts(fn: Any, kwarg: str) -> bool:
    """Whether callable *fn* (or None) takes keyword argument *kwarg*."""
    if fn is None:
        return False
    try:
        return kwarg in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
