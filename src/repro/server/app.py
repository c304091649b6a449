"""The asyncio HTTP/JSON front door over any :class:`Engine`.

``NNServer`` adapts an engine (thread, resilient, or sharded — anything
implementing :class:`repro.service.protocol.Engine`) to network
traffic:

- ``POST /query``  — one k-NN query; singleton arrivals are coalesced
  into micro-batches (see :mod:`repro.server.coalesce`) unless the
  request's deadline cannot survive the window;
- ``POST /batch``  — an explicit batch, dispatched straight through the
  engine's packed batch path;
- ``GET /healthz`` — process liveness (always 200 while serving);
- ``GET /readyz``  — load-balancer readiness: engine ``liveness()``
  hook (epoch, shard liveness) AND not draining;
- ``GET /stats``   — Prometheus text via ``MetricsRegistry.export()``;
- ``GET /spans``   — recent sampled request traces as JSONL (see
  :mod:`repro.obs.spans`; render with ``python -m repro.obs spans``).

Admission verdicts map onto HTTP: a per-client quota breach is ``429``,
queue-full/expired/shutdown shedding is ``503``, both with a
``Retry-After`` hint.  ``SIGTERM``/``SIGINT`` trigger the graceful
drain sequence: stop accepting, flush the coalescer, finish in-flight
requests, then ``close(timeout)`` the engine.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import math
import signal
import socket
from concurrent.futures import CancelledError as FutureCancelled
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.budget import Budget
from repro.core.config import QueryConfig
from repro.core.query import NNResult, resolve_config
from repro.errors import (
    AdmissionRejected,
    GeometryError,
    InvalidParameterError,
    QuotaExceeded,
)
from repro.geometry.point import _COORD_LIMIT
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanContext, SpanLog, SpanSampler
from repro.server.coalesce import Coalescer
from repro.server.http import (
    HTTPError,
    Request,
    read_request,
    render_response,
)
from repro.service.resilience import Served

__all__ = ["NNServer", "ServerConfig"]


@dataclass(frozen=True)
class ServerConfig:
    """Front-door knobs (engine knobs live on the engine itself)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: pick a free port (exposed as ``NNServer.port``)
    coalesce: bool = True
    max_wait_ms: float = 1.0
    max_batch: int = 64
    drain_timeout: float = 10.0
    max_body_bytes: int = 1 << 20
    retry_after_s: float = 1.0
    close_engine: bool = True  # drain also closes the engine
    dispatch_threads: int = 4
    # Distributed tracing (see repro.obs.spans).  ``spans=False`` is the
    # master switch: no sampler, no span log, no per-request ctx plumbing
    # at all — byte-for-byte the pre-span serving path (pinned by
    # tests/server/test_spans_endpoint.py).  With ``spans=True`` each
    # ``/query`` / ``/batch`` draws a sampling verdict at *span_sample*
    # rate (0.0 still honors per-request ``"trace": true`` forcing);
    # sampled requests carry a SpanContext through the coalescer and
    # engine into shard workers, and finished traces land in a bounded
    # ring exported at ``GET /spans`` as JSONL.
    spans: bool = True
    span_sample: float = 0.0
    span_seed: Optional[int] = None
    span_log: int = 256

    def __post_init__(self) -> None:
        if self.max_wait_ms <= 0:
            raise InvalidParameterError(
                f"max_wait_ms must be > 0, got {self.max_wait_ms}"
            )
        if self.max_batch < 2:
            raise InvalidParameterError(
                f"max_batch must be >= 2, got {self.max_batch}"
            )
        if self.drain_timeout <= 0:
            raise InvalidParameterError(
                f"drain_timeout must be > 0, got {self.drain_timeout}"
            )
        if not 0.0 <= self.span_sample <= 1.0:
            raise InvalidParameterError(
                f"span_sample must be in [0, 1], got {self.span_sample}"
            )
        if self.span_log < 1:
            raise InvalidParameterError(
                f"span_log must be >= 1, got {self.span_log}"
            )


class NNServer:
    """One engine behind one listening socket.

    Use either the async lifecycle (``await start()`` … ``await
    shutdown()``, or ``async with``) from an existing event loop, or
    the blocking :meth:`run` which owns a loop and installs the
    ``SIGTERM``/``SIGINT`` drain handlers.
    """

    def __init__(
        self,
        engine: Any,
        config: Optional[ServerConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else ServerConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self.coalescer: Optional[Coalescer] = None
        self._draining = False
        self._closed = False
        self._connections: set = set()
        # Created in start(): asyncio primitives must be born inside
        # the serving loop (pre-3.10 they bind a loop at construction).
        self._idle: Optional[asyncio.Event] = None
        # Set while run() is serving, so stop() can reach its loop from
        # another thread.
        self._stop_event: Optional[asyncio.Event] = None
        self._run_loop: Optional[asyncio.AbstractEventLoop] = None
        try:
            params = inspect.signature(engine.submit).parameters
            self._accepts_client = "client" in params
            self._accepts_span = "span_ctx" in params
        except (TypeError, ValueError):  # builtins / exotic callables
            self._accepts_client = False
            self._accepts_span = False
        try:
            self._batch_takes_spans = "span_ctxs" in inspect.signature(
                getattr(engine, "query_batch")
            ).parameters
        except (AttributeError, TypeError, ValueError):
            self._batch_takes_spans = False
        # Tracing: None sampler/log means the master switch is off and
        # the request path never touches span machinery.
        cfg = self.config
        self.span_sampler: Optional[SpanSampler] = (
            SpanSampler(cfg.span_sample, seed=cfg.span_seed)
            if cfg.spans
            else None
        )
        self.span_log: Optional[SpanLog] = (
            SpanLog(cfg.span_log) if cfg.spans else None
        )
        if self.span_log is not None:
            self.registry.register("server.spans", self.span_log.stats)
        # Per-connection metrics (the repro.obs registry scheme).
        self._m_conns_open = self.registry.gauge("server.connections_open")
        self._m_conns_total = self.registry.counter("server.connections")
        self._m_requests = self.registry.counter("server.requests")
        self._m_coalesced = self.registry.counter("server.coalesced")
        self._m_bypass = self.registry.counter("server.deadline_bypass")
        self._m_bytes_in = self.registry.counter("server.bytes_in")
        self._m_bytes_out = self.registry.counter("server.bytes_out")
        self._m_latency = self.registry.histogram("server.request_seconds")
        self._m_conn_requests = self.registry.histogram(
            "server.requests_per_connection", base=1.0, growth=2.0
        )
        self._m_status: Dict[int, Any] = {}
        register = getattr(engine, "register_metrics", None)
        if callable(register):
            register(self.registry)
        else:
            stats = getattr(engine, "stats", None)
            if callable(stats):
                self.registry.register(
                    "engine", lambda: _as_dict(stats())
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        self._idle = asyncio.Event()
        self._idle.set()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.dispatch_threads,
            thread_name_prefix="repro-server-dispatch",
        )
        self.coalescer = Coalescer(
            self.engine,
            self._executor,
            max_wait_ms=self.config.max_wait_ms,
            max_batch=self.config.max_batch,
        )
        self.registry.register("server.coalescer", self.coalescer.stats)
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            backlog=4096,
            reuse_address=True,
        )

    async def shutdown(self, reason: str = "shutdown") -> None:
        """Graceful drain: stop accepting → flush coalescer → close engine.

        Idempotent.  In-flight requests get up to ``drain_timeout`` to
        finish; connections still open afterwards are aborted so the
        listener's file descriptors never linger.
        """
        if self._closed:
            return
        self._draining = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        if self.coalescer is not None:
            await self.coalescer.drain()
        if self._idle is not None:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=self.config.drain_timeout
                )
            except asyncio.TimeoutError:
                for task in list(self._connections):
                    task.cancel()
                await asyncio.gather(
                    *list(self._connections), return_exceptions=True
                )
        self._closed = True
        if self.config.close_engine:
            close = self.engine.close
            loop = asyncio.get_running_loop()
            try:
                await loop.run_in_executor(
                    self._executor,
                    lambda: close(timeout=self.config.drain_timeout),
                )
            except TypeError:  # engines whose close() takes no timeout
                await loop.run_in_executor(self._executor, close)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "NNServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    def run(self) -> None:
        """Blocking entry point: serve until ``SIGTERM``/``SIGINT``."""

        async def _main() -> None:
            await self.start()
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            self._stop_event = stop
            self._run_loop = loop
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, stop.set)
                except (NotImplementedError, RuntimeError):
                    # No signal support here (non-main thread, or an
                    # event loop without it): serve anyway and rely on
                    # stop() — or an explicit shutdown() — to finish.
                    break
            assert self._server is not None
            address = self._server.sockets[0].getsockname()
            print(f"repro.server listening on {address[0]}:{address[1]}")
            try:
                await stop.wait()
                print("repro.server draining ...")
                await self.shutdown(reason="signal")
                print("repro.server drained")
            finally:
                self._stop_event = None
                self._run_loop = None

        asyncio.run(_main())

    def stop(self) -> None:
        """Thread-safe: ask a blocking :meth:`run` to drain and return.

        The signal-handler path and this method set the same event, so
        a host that embeds :meth:`run` in a worker thread (where POSIX
        signal handlers cannot be installed) gets the identical drain
        sequence.  A no-op unless :meth:`run` is currently serving.
        """
        loop, stop = self._run_loop, self._stop_event
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        assert self._idle is not None
        self._idle.clear()
        self._m_conns_total.inc()
        self._m_conns_open.add(1)
        requests_served = 0
        try:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                try:
                    sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                except OSError:  # pragma: no cover - exotic transports
                    pass
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_body_bytes
                    )
                except HTTPError as exc:
                    await self._write(
                        writer,
                        _error_body(exc.status, exc.message),
                        status=exc.status,
                        keep_alive=False,
                    )
                    break
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                ):
                    break
                if request is None:
                    break
                self._m_bytes_in.inc(len(request.body))
                self._m_requests.inc()
                requests_served += 1
                loop = asyncio.get_running_loop()
                started = loop.time()
                status, body, extra = await self._route(request)
                self._m_latency.observe(max(0.0, loop.time() - started))
                keep_alive = request.keep_alive and not self._draining
                try:
                    await self._write(
                        writer,
                        body,
                        status=status,
                        keep_alive=keep_alive,
                        extra_headers=extra,
                    )
                except (ConnectionError, asyncio.CancelledError):
                    break
                if not keep_alive:
                    break
        except asyncio.CancelledError:  # drain timeout aborted us
            pass
        finally:
            self._m_conns_open.add(-1)
            self._m_conn_requests.observe(float(requests_served))
            self._connections.discard(task)
            if not self._connections:
                self._idle.set()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        body: bytes,
        status: int = 200,
        keep_alive: bool = True,
        extra_headers: Tuple[Tuple[str, str], ...] = (),
        content_type: str = "application/json",
    ) -> None:
        payload = render_response(
            status,
            body,
            content_type=content_type,
            keep_alive=keep_alive,
            extra_headers=extra_headers,
        )
        self._m_bytes_out.inc(len(payload))
        self._count_status(status)
        writer.write(payload)
        await writer.drain()

    def _count_status(self, status: int) -> None:
        counter = self._m_status.get(status)
        if counter is None:
            counter = self.registry.counter(f"server.responses_{status}")
            self._m_status[status] = counter
        counter.inc()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self, request: Request
    ) -> Tuple[int, bytes, Tuple[Tuple[str, str], ...]]:
        try:
            if request.path == "/healthz":
                if request.method != "GET":
                    return _plain(405, "healthz is GET-only")
            elif request.path == "/readyz":
                if request.method != "GET":
                    return _plain(405, "readyz is GET-only")
            elif request.path == "/stats":
                if request.method != "GET":
                    return _plain(405, "stats is GET-only")
            elif request.path == "/spans":
                if request.method != "GET":
                    return _plain(405, "spans is GET-only")
            elif request.path in ("/query", "/batch"):
                if request.method != "POST":
                    return _plain(405, f"{request.path} is POST-only")
            else:
                return _plain(404, f"no route {request.path}")

            if request.path == "/healthz":
                return 200, _json({"status": "ok"}), ()
            if request.path == "/readyz":
                return self._readyz()
            if request.path == "/stats":
                return 200, self.registry.export().encode("utf-8"), (
                    ("X-Content-Format", "prometheus"),
                )
            if request.path == "/spans":
                return self._spans()
            if self._draining:
                return self._unavailable("server is draining")
            payload = _parse_json(request.body)
            if request.path == "/query":
                return await self._query(payload)
            return await self._batch(payload)
        except HTTPError as exc:
            return _plain(exc.status, exc.message)
        except QuotaExceeded as exc:
            return self._shed(429, str(exc))
        except AdmissionRejected as exc:
            return self._shed(503, str(exc))
        except (InvalidParameterError, GeometryError) as exc:
            return _plain(400, str(exc))
        except (FutureCancelled, asyncio.CancelledError):
            raise
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            return _plain(500, f"{type(exc).__name__}: {exc}")

    def _readyz(self) -> Tuple[int, bytes, Tuple[Tuple[str, str], ...]]:
        hook = getattr(self.engine, "liveness", None)
        if callable(hook):
            detail = dict(hook())
        else:
            snap = self.engine.snapshot()
            detail = {"ready": True, "backend": snap.backend,
                      "epoch": snap.epoch}
        ready = bool(detail.get("ready", True)) and not self._draining
        detail["ready"] = ready
        detail["draining"] = self._draining or bool(
            detail.get("draining", False)
        )
        return (200 if ready else 503), _json(detail), ()

    def _spans(self) -> Tuple[int, bytes, Tuple[Tuple[str, str], ...]]:
        """Recent finished traces, one span dict per JSONL line."""
        log = self.span_log
        if log is None:
            return _plain(404, "tracing is disabled (ServerConfig.spans)")
        lines = [
            json.dumps(span.to_dict(), separators=(",", ":"), sort_keys=True)
            for span in log.records()
        ]
        body = ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
        return 200, body, (("X-Content-Format", "jsonl"),)

    def _shed(
        self, status: int, message: str
    ) -> Tuple[int, bytes, Tuple[Tuple[str, str], ...]]:
        retry_after = self.config.retry_after_s
        body = _json(
            {"error": message, "retry_after": retry_after}
        )
        return status, body, (("Retry-After", _format_retry(retry_after)),)

    def _unavailable(
        self, message: str
    ) -> Tuple[int, bytes, Tuple[Tuple[str, str], ...]]:
        return self._shed(503, message)

    # ------------------------------------------------------------------
    # Query endpoints
    # ------------------------------------------------------------------
    def _request_config(self, payload: Dict[str, Any]) -> QueryConfig:
        base = getattr(self.engine, "config", None)
        if not isinstance(base, QueryConfig):
            base = QueryConfig()
        k = payload.get("k")
        if k is not None and (isinstance(k, bool) or not isinstance(k, int)):
            raise HTTPError(400, "k must be an integer")
        cfg = resolve_config(base, k=k)
        epsilon = _number(payload, "epsilon", float)
        if epsilon is not None:
            cfg = cfg.replace(epsilon=epsilon)
        deadline_ms = _number(payload, "deadline_ms", float)
        max_pages = _number(payload, "max_pages", int)
        if deadline_ms is not None or max_pages is not None:
            cfg = cfg.replace(
                budget=Budget(deadline_ms=deadline_ms, max_pages=max_pages)
            )
        return cfg

    @staticmethod
    def _point(value: Any) -> Tuple[float, ...]:
        # bool is an int subclass; json.loads admits NaN/Infinity tokens and
        # overflowing literals (1e999): none is within as_point's bound.
        if (
            not isinstance(value, (list, tuple))
            or not value
            or not all(
                isinstance(c, (int, float))
                and not isinstance(c, bool)
                and -_COORD_LIMIT <= c <= _COORD_LIMIT
                for c in value
            )
        ):
            raise HTTPError(
                400, "point must be a non-empty array of numbers within ±1e150"
            )
        return tuple(float(c) for c in value)

    def _trace_context(
        self, payload: Dict[str, Any]
    ) -> Optional[SpanContext]:
        """Sampling verdict for one request; ``None`` = not traced.

        With the master switch off this is never called — the request
        path skips span plumbing entirely.  ``"trace": true`` in the
        payload forces a sampled context regardless of the rate, the
        standard debug override (curl one traced request out of an
        untraced fleet).
        """
        sampler = self.span_sampler
        if sampler is None:
            return None
        if payload.get("trace") is True or sampler.decide():
            return SpanContext()
        return None

    async def _query(
        self, payload: Dict[str, Any]
    ) -> Tuple[int, bytes, Tuple[Tuple[str, str], ...]]:
        point = self._point(payload.get("point"))
        cfg = self._request_config(payload)
        client = payload.get("client")
        ctx = self._trace_context(payload)
        root = (
            ctx.start("http.request", path="/query") if ctx is not None
            else None
        )
        coalescer = self.coalescer
        enabled = self.config.coalesce and coalescer is not None
        bypass = enabled and coalescer.bypasses(cfg)
        # Per-client quotas need per-request verdicts.
        coalesce = enabled and client is None and not bypass
        try:
            if coalesce:
                outcome = await coalescer.submit(point, cfg, span_ctx=ctx)
                self._m_coalesced.inc()
            else:
                if bypass:
                    self._m_bypass.inc()
                    coalescer.note_bypass()
                    if root is not None:
                        root.annotate(bypass="deadline")
                outcome = await self._direct(point, cfg, client, ctx)
        except BaseException as exc:
            if root is not None:
                root.end(error=type(exc).__name__)
                self.span_log.observe(ctx)
            raise
        result, served = _unwrap(outcome)
        body = _result_body(result, coalesced=coalesce)
        if served is not None:
            body["wait_ms"] = served.wait_ms
            body["service_ms"] = served.service_ms
            body["brownout_level"] = served.brownout_level
        if ctx is not None:
            if root is not None:
                root.end(status=200)
            body["trace"] = ctx.trace_id
            self.span_log.observe(ctx)
        return 200, _json(body), ()

    async def _direct(
        self,
        point: Tuple[float, ...],
        cfg: QueryConfig,
        client: Optional[str],
        span_ctx: Optional[SpanContext] = None,
    ) -> Any:
        """Per-request dispatch through the engine's ``submit``."""
        kwargs: Dict[str, Any] = {}
        if self._accepts_client:
            kwargs["client"] = client
        if span_ctx is not None and self._accepts_span:
            kwargs["span_ctx"] = span_ctx
        future = self.engine.submit(point, config=cfg, **kwargs)
        return await asyncio.wrap_future(future)

    async def _batch(
        self, payload: Dict[str, Any]
    ) -> Tuple[int, bytes, Tuple[Tuple[str, str], ...]]:
        raw_points = payload.get("points")
        if not isinstance(raw_points, list) or not raw_points:
            raise HTTPError(400, "points must be a non-empty array")
        points = [self._point(p) for p in raw_points]
        cfg = self._request_config(payload)
        ctx = self._trace_context(payload)
        root = (
            ctx.start("http.request", path="/batch", points=len(points))
            if ctx is not None
            else None
        )
        loop = asyncio.get_running_loop()
        query_batch = getattr(self.engine, "query_batch", None)
        try:
            if query_batch is not None:
                if ctx is not None and self._batch_takes_spans:
                    # One HTTP request = one trace: every point shares
                    # the request's context (engines dedupe by identity).
                    ctxs = [ctx] * len(points)
                    results = await loop.run_in_executor(
                        self._executor,
                        lambda: query_batch(
                            points, config=cfg, span_ctxs=ctxs
                        ),
                    )
                else:
                    results = await loop.run_in_executor(
                        self._executor,
                        lambda: query_batch(points, config=cfg),
                    )
            else:
                futures = [
                    asyncio.wrap_future(self.engine.submit(p, config=cfg))
                    for p in points
                ]
                results = await asyncio.gather(*futures)
        except BaseException as exc:
            if root is not None:
                root.end(error=type(exc).__name__)
                self.span_log.observe(ctx)
            raise
        body = {
            "results": [
                _result_body(_unwrap(r)[0], coalesced=False)
                for r in results
            ]
        }
        if ctx is not None:
            if root is not None:
                root.end(status=200)
            body["trace"] = ctx.trace_id
            self.span_log.observe(ctx)
        return 200, _json(body), ()


# ----------------------------------------------------------------------
# Serialization helpers
# ----------------------------------------------------------------------
def _as_dict(value: Any) -> Dict[str, Any]:
    as_dict = getattr(value, "as_dict", None)
    return as_dict() if callable(as_dict) else {}


def _unwrap(outcome: Any) -> Tuple[NNResult, Optional[Served]]:
    if isinstance(outcome, Served):
        return outcome.result, outcome
    return outcome, None


def _result_body(result: NNResult, coalesced: bool) -> Dict[str, Any]:
    frontier = result.frontier_distance
    return {
        "neighbors": result.to_dicts(),
        "truncated": result.truncated,
        "truncation_reason": result.truncation_reason,
        "frontier_distance": (
            None if math.isinf(frontier) else frontier
        ),
        "coalesced": coalesced,
    }


def _parse_json(body: bytes) -> Dict[str, Any]:
    if not body:
        raise HTTPError(400, "empty body (expected a JSON object)")
    try:
        payload = json.loads(body)
    except (ValueError, UnicodeDecodeError):
        raise HTTPError(400, "body is not valid JSON")
    if not isinstance(payload, dict):
        raise HTTPError(400, "body must be a JSON object")
    return payload


def _number(payload: Dict[str, Any], field: str, kind: type) -> Any:
    """``kind(payload[field])``; None when absent; a 400 naming *field*."""
    value = payload.get(field)
    if value is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise HTTPError(400, f"{field} must be a number") from None


def _json(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _plain(
    status: int, message: str
) -> Tuple[int, bytes, Tuple[Tuple[str, str], ...]]:
    return status, _error_body(status, message), ()


def _error_body(status: int, message: str) -> bytes:
    return _json({"error": message, "status": status})


def _format_retry(seconds: float) -> str:
    if float(seconds).is_integer():
        return str(int(seconds))
    return f"{seconds:.3f}"
