"""repro.obs — unified observability for the query stack.

Three layers, all opt-in and zero-cost when unused:

- :mod:`repro.obs.trace` — a compact per-query event stream
  (:class:`Trace`) threaded through every k-NN kernel: node enters and
  exits with MINDIST, P1/P2/P3 prune decisions with both sides of each
  comparison, object accepts, corrupt-page skips, and result-cache
  outcomes.  :func:`render_trace` turns one into an indented tree.
- :mod:`repro.obs.registry` — a metrics registry
  (:class:`MetricsRegistry` with :class:`Counter`, :class:`Gauge`, and
  log-bucketed :class:`Histogram`) that aggregates every stats class in
  the repo through their common ``as_dict()`` protocol, with JSONL
  (:func:`export_jsonl`) and Prometheus-text (:func:`export_prometheus`)
  exporters.
- :mod:`repro.obs.forensics` — the serving layer's slow-query machinery:
  a bounded ring (:class:`SlowQueryLog`) of :class:`SlowQueryRecord`
  entries with tail-sampled traces, plus JSONL persistence and the
  ``repro.obs top`` summarizer.
- :mod:`repro.obs.spans` — request-scoped distributed tracing
  (:class:`SpanContext`): sampled requests record wall-clock stage
  spans across the front door, coalescer, engine and shard worker
  processes, assembled into one cross-process trace tree
  (``repro.obs spans`` renders a JSONL dump).
- :mod:`repro.obs.replay` — the capture/replay harness: record query
  streams with answer digests at the engine boundary
  (:class:`QueryRecorder`), replay them against any backend and assert
  digest-identical answers (:func:`replay`).

``python -m repro.obs trace`` renders a live query trace;
``python -m repro.obs top`` summarizes a dumped slow-query log;
``python -m repro.obs spans`` renders a span JSONL dump (e.g. from the
server's ``GET /spans``).
"""

from __future__ import annotations

# Import order matters: ``trace`` has no intra-repro dependencies, while
# ``registry`` imports repro.service.stats — whose package __init__ pulls
# in the engine, which imports back into repro.obs.  Loading ``trace``
# first guarantees the engine's ``from repro.obs.trace import Trace``
# resolves even while this package is mid-initialization.
from repro.obs.trace import Trace, TraceNode, build_trace_tree, render_trace
from repro.obs.forensics import (
    SlowQueryLog,
    SlowQueryRecord,
    load_jsonl,
    render_top,
    summarize_records,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    export_jsonl,
    export_prometheus,
    lint_prometheus,
)
from repro.obs.spans import (
    Span,
    SpanContext,
    SpanLog,
    SpanSampler,
    build_span_tree,
    load_spans_jsonl,
    render_spans,
)
from repro.obs.replay import (
    CaptureLog,
    CapturedQuery,
    QueryRecorder,
    ReplayReport,
    digest_result,
    replay,
)

__all__ = [
    "CaptureLog",
    "CapturedQuery",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueryRecorder",
    "ReplayReport",
    "SlowQueryLog",
    "SlowQueryRecord",
    "Span",
    "SpanContext",
    "SpanLog",
    "SpanSampler",
    "Trace",
    "TraceNode",
    "build_span_tree",
    "build_trace_tree",
    "digest_result",
    "export_jsonl",
    "export_prometheus",
    "lint_prometheus",
    "load_jsonl",
    "load_spans_jsonl",
    "render_spans",
    "render_top",
    "render_trace",
    "replay",
    "summarize_records",
]
