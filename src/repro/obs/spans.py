"""Cross-process request spans: one trace per request, end to end.

PR 5's :class:`~repro.obs.trace.Trace` explains a single *kernel* run —
every P1/P2/P3 decision against the paper's rules.  This module explains
a *request*: where the wall-clock went between the HTTP front door, the
coalescer window, the engine, the shard worker processes and the merge.
The two are deliberately separate layers — a trace is per-traversal and
heavyweight, a span is per-stage and a handful of numbers — and they
meet in the worker's kernel span, whose attributes carry the
:class:`~repro.core.stats.SearchStats` summary (pages, P1/P3 prunes) of
the traversal it timed.

Design:

* A :class:`SpanContext` is the request-scoped trace context: a trace
  id, a sampling decision, and a thread-safe collector of finished
  :class:`Span` records.  It is created once per sampled request (by
  :class:`~repro.server.app.NNServer`, or by hand around any engine
  call) and threaded — by argument, never by ambient global — through
  the coalescer and the :class:`~repro.service.protocol.Engine`
  implementations.  ``span_ctx=None`` everywhere means "off", and the
  serving path pays one ``is None`` test (``perf/``'s ``http_open``
  workload serves this way).
* Spans form a tree via explicit parent ids.  Ids are allocated by the
  context, so cross-thread use is safe; worker *processes* cannot share
  the allocator, so they ship **compact records** — ``(name,
  parent_rel, start_s, duration_ms, attrs_items)`` tuples, relative
  parent links inside the shipped batch — over the
  :mod:`repro.shard.wire` codec, and :meth:`SpanContext.graft` re-roots
  them under the parent-side RPC span with freshly allocated ids.
* Start times are wall-clock (``time.time()``: one machine, one clock,
  so worker spans and parent spans share a time base); durations are
  measured with ``time.perf_counter`` so they do not jump with clock
  adjustments.

Export is JSONL (one span per line, :func:`load_spans_jsonl` reads it
back) and the renderer behind ``python -m repro.obs spans`` draws the
per-trace tree with durations and attributes.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Deque,
    Dict,
    IO,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import InvalidParameterError

__all__ = [
    "Span",
    "SpanContext",
    "SpanLog",
    "SpanNode",
    "SpanSampler",
    "WIRE_PARENT",
    "build_span_tree",
    "group_traces",
    "load_spans_jsonl",
    "new_trace_id",
    "render_spans",
]

#: ``parent_rel`` sentinel in a compact wire record: attach this span to
#: the graft parent instead of another span in the same shipped batch.
WIRE_PARENT = -1


def new_trace_id() -> str:
    """A fresh 64-bit hex trace id (collision odds are irrelevant here)."""
    return os.urandom(8).hex()


@dataclass
class Span:
    """One finished stage of a request.

    ``parent_id is None`` marks a root.  ``attrs`` carries the stage's
    scalar summary — the kernel span's pages/prune counts, the HTTP
    span's status, the queue span's depth — never nested structures.
    """

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    duration_ms: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "ms": self.duration_ms,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Span":
        return cls(
            trace_id=record["trace"],
            span_id=record["span"],
            parent_id=record["parent"],
            name=record["name"],
            start_s=record["start_s"],
            duration_ms=record["ms"],
            attrs=dict(record.get("attrs", {})),
        )


class _OpenSpan:
    """An in-flight span: a context manager whose exit records it."""

    __slots__ = ("_ctx", "id", "name", "parent_id", "attrs", "_start_s", "_t0")

    def __init__(
        self,
        ctx: "SpanContext",
        span_id: int,
        name: str,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
    ) -> None:
        self._ctx = ctx
        self.id = span_id
        self.name = name
        self.parent_id = parent_id
        self.attrs = attrs
        self._start_s = time.time()
        self._t0 = time.perf_counter()

    def annotate(self, **attrs: Any) -> None:
        """Attach scalar attributes while the span is still open."""
        self.attrs.update(attrs)

    def end(self, **attrs: Any) -> int:
        """Finish the span; returns its id (usable as a later parent)."""
        if attrs:
            self.attrs.update(attrs)
        self._ctx._record(
            self.name,
            self.id,
            self.parent_id,
            self._start_s,
            (time.perf_counter() - self._t0) * 1000.0,
            self.attrs,
        )
        return self.id

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.end()


class SpanContext:
    """Request-scoped trace context and span collector (thread-safe).

    The *sampling decision* is the ``sampled`` flag: an unsampled
    context exists only so call sites can stay branch-free — its
    :meth:`start`/:meth:`add`/:meth:`graft` are no-ops.  In practice the
    serving path never builds unsampled contexts at all (``None`` is
    cheaper still); the flag exists for head-based propagation, where a
    downstream stage must honor an upstream "no".
    """

    __slots__ = ("trace_id", "sampled", "_lock", "_spans", "_next")

    def __init__(
        self, trace_id: Optional[str] = None, sampled: bool = True
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.sampled = sampled
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._next = 1

    # -- recording -----------------------------------------------------
    def _next_id(self) -> int:
        with self._lock:
            span_id = self._next
            self._next += 1
            return span_id

    def _record(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start_s: float,
        duration_ms: float,
        attrs: Dict[str, Any],
    ) -> None:
        span = Span(
            trace_id=self.trace_id,
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            start_s=start_s,
            duration_ms=duration_ms,
            attrs=attrs,
        )
        with self._lock:
            self._spans.append(span)

    def start(
        self, name: str, parent: Optional[int] = None, **attrs: Any
    ) -> Optional[_OpenSpan]:
        """Open a span; ``None`` when unsampled (callers pass it along)."""
        if not self.sampled:
            return None
        return _OpenSpan(self, self._next_id(), name, parent, dict(attrs))

    def add(
        self,
        name: str,
        start_s: float,
        duration_ms: float,
        parent: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Optional[int]:
        """Record an already-measured span (e.g. a queue wait)."""
        if not self.sampled:
            return None
        span_id = self._next_id()
        self._record(
            name, span_id, parent, start_s, duration_ms, dict(attrs or {})
        )
        return span_id

    def graft(
        self,
        records: Sequence[Tuple[str, int, float, float, tuple]],
        parent: Optional[int] = None,
    ) -> None:
        """Re-root compact wire records (worker spans) under *parent*.

        Each record is ``(name, parent_rel, start_s, duration_ms,
        attrs_items)``; ``parent_rel`` is :data:`WIRE_PARENT` for the
        batch's roots, else the index of another record *earlier in the
        same batch*.  Fresh ids are allocated here, so batches from
        different shards can be grafted concurrently.
        """
        if not self.sampled or not records:
            return
        ids: List[int] = []
        for name, parent_rel, start_s, duration_ms, attrs_items in records:
            if parent_rel == WIRE_PARENT:
                parent_id = parent
            elif 0 <= parent_rel < len(ids):
                parent_id = ids[parent_rel]
            else:
                raise InvalidParameterError(
                    f"wire span {name!r} has parent_rel={parent_rel} "
                    f"outside its batch (size {len(ids)})"
                )
            span_id = self._next_id()
            self._record(
                name,
                span_id,
                parent_id,
                start_s,
                duration_ms,
                dict(attrs_items),
            )
            ids.append(span_id)

    # -- reading -------------------------------------------------------
    def spans(self) -> List[Span]:
        """The finished spans, in completion order (leaves may precede
        their parent: the parent span closes last)."""
        with self._lock:
            return list(self._spans)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self.spans()]

    def dump_jsonl(self, fp: IO[str]) -> int:
        """Append one JSON line per span; returns the line count."""
        count = 0
        for record in self.to_dicts():
            fp.write(json.dumps(record, separators=(",", ":")) + "\n")
            count += 1
        return count


class SpanSampler:
    """Thread-safe ratio sampler making the per-request head decision.

    ``rate`` is the sampled fraction in ``[0, 1]``; 0 never samples (and
    short-circuits before touching the RNG — the sampling-off serving
    path is the one ``perf/``'s ``http_open`` workload times), 1 always
    does.  A *seed* makes the decision sequence reproducible for tests
    and benchmarks.
    """

    __slots__ = ("rate", "_rng", "_lock")

    def __init__(self, rate: float, seed: Optional[int] = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise InvalidParameterError(
                f"sample rate must be in [0, 1], got {rate}"
            )
        self.rate = rate
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def decide(self) -> bool:
        rate = self.rate
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        with self._lock:
            return self._rng.random() < rate


class SpanLog:
    """Bounded ring of finished traces (the forensics-log pattern).

    ``observe()`` takes a finished :class:`SpanContext`; the ring keeps
    the most recent *capacity* traces' span records so a front door can
    expose recent request breakdowns without unbounded memory.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise InvalidParameterError(
                f"span log capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: Deque[List[Span]] = deque(maxlen=capacity)
        self._observed = 0

    def observe(self, ctx: SpanContext) -> None:
        spans = ctx.spans()
        if not spans:
            return
        with self._lock:
            self._traces.append(spans)
            self._observed += 1

    def records(self) -> List[Span]:
        """Every retained span, oldest trace first."""
        with self._lock:
            traces = list(self._traces)
        return [span for trace in traces for span in trace]

    def dump_jsonl(self, fp: IO[str]) -> int:
        count = 0
        for span in self.records():
            fp.write(json.dumps(span.to_dict(), separators=(",", ":")) + "\n")
            count += 1
        return count

    def stats(self) -> Dict[str, int]:
        """Registry-protocol source: traces seen vs currently retained."""
        with self._lock:
            return {"observed": self._observed, "kept": len(self._traces)}


# ----------------------------------------------------------------------
# Assembly and rendering
# ----------------------------------------------------------------------

@dataclass
class SpanNode:
    """One node of an assembled span tree."""

    span: Span
    children: List["SpanNode"] = field(default_factory=list)


def build_span_tree(spans: Iterable[Span]) -> List[SpanNode]:
    """Assemble one trace's spans into root nodes (children by start).

    A span whose parent is missing from the input (a trace truncated by
    the ring, a partial JSONL) is promoted to a root rather than
    dropped — a renderer must never silently lose wall-clock.
    """
    nodes: Dict[int, SpanNode] = OrderedDict()
    ordered = sorted(spans, key=lambda s: (s.start_s, s.span_id))
    for span in ordered:
        nodes[span.span_id] = SpanNode(span)
    roots: List[SpanNode] = []
    for span in ordered:
        node = nodes[span.span_id]
        parent = (
            nodes.get(span.parent_id) if span.parent_id is not None else None
        )
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots


def group_traces(spans: Iterable[Span]) -> "OrderedDict[str, List[Span]]":
    """Bucket spans by trace id, preserving first-seen order."""
    groups: "OrderedDict[str, List[Span]]" = OrderedDict()
    for span in spans:
        groups.setdefault(span.trace_id, []).append(span)
    return groups


def _render_attrs(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    parts = []
    for key in sorted(attrs):
        value = attrs[key]
        if isinstance(value, float):
            parts.append(f"{key}={value:g}")
        else:
            parts.append(f"{key}={value}")
    return "  " + " ".join(parts)


def render_spans(spans: Iterable[Span], limit: Optional[int] = None) -> str:
    """Human-readable span trees, one block per trace.

    *limit* caps the number of traces rendered (newest last, like a
    log tail would show them)."""
    groups = group_traces(spans)
    trace_ids = list(groups)
    if limit is not None and limit >= 0:
        trace_ids = trace_ids[-limit:]
    blocks: List[str] = []
    for trace_id in trace_ids:
        trace = groups[trace_id]
        roots = build_span_tree(trace)
        total_ms = sum(node.span.duration_ms for node in roots)
        lines = [
            f"trace {trace_id} — {len(trace)} spans, {total_ms:.2f}ms"
        ]

        def _walk(node: SpanNode, depth: int) -> None:
            span = node.span
            pad = "  " * (depth + 1)
            lines.append(
                f"{pad}{span.name:<{max(1, 38 - 2 * depth)}}"
                f"{span.duration_ms:>9.2f}ms{_render_attrs(span.attrs)}"
            )
            for child in node.children:
                _walk(child, depth + 1)

        for root in roots:
            _walk(root, 0)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def load_spans_jsonl(fp: IO[str]) -> List[Span]:
    """Read spans back from a JSONL export (line numbers on errors)."""
    spans: List[Span] = []
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            spans.append(Span.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"malformed span record on line {lineno}: {exc}"
            ) from exc
    return spans
