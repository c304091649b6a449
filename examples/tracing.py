#!/usr/bin/env python
"""Observability end to end: traces, metrics, slow-query forensics.

The paper argues with counters — pages touched, subtrees pruned.  The
``repro.obs`` layer makes those counters inspectable on live queries:

1. trace one query and render the traversal as a tree, seeing every
   MINDIST comparison the pruning heuristics made;
2. verify the trace agrees with the query's ``SearchStats`` (the same
   equivalence the audit certifies);
3. flatten engine + search statistics into a metrics registry and export
   them in Prometheus text format;
4. run a serving engine with slow-query forensics on and read back the
   preserved evidence for the slowest request.

Run with::

    python examples/tracing.py
"""

from repro import EngineOptions, bulk_load, nearest
from repro.core.config import QueryConfig
from repro.datasets import gaussian_clusters
from repro.obs import (
    MetricsRegistry,
    Trace,
    build_trace_tree,
    export_prometheus,
    render_trace,
)
from repro.service.engine import QueryEngine


def main() -> None:
    points = gaussian_clusters(1500, seed=42)
    tree = bulk_load(
        [(p, i) for i, p in enumerate(points)], max_entries=8
    )
    query = (500.0, 500.0)

    # --- 1. trace one query ---------------------------------------------
    print("=== one traced query ===")
    trace = Trace(label="clustered n=1500")
    result = nearest(tree, query, k=5, trace=trace)
    print(render_trace(trace, max_children=6))

    # --- 2. the trace is evidence, not narrative ------------------------
    print("\n=== trace vs SearchStats ===")
    stats = result.stats
    counts = trace.counts()
    root = build_trace_tree(trace)
    print(f"pages entered      {trace.pages_entered():4d}"
          f"   == stats.nodes_accessed {stats.nodes_accessed}")
    print(f"subtree pages      {root.subtree_pages():4d}"
          f"   (reconstructed traversal tree)")
    print(f"p3 prunes          {counts.get('p3', 0):4d}"
          f"   == stats.pruning.p3_pruned {stats.pruning.p3_pruned}")
    assert trace.pages_entered() == stats.nodes_accessed
    assert root.subtree_pages() == stats.nodes_accessed
    assert counts.get("p3", 0) == stats.pruning.p3_pruned

    # --- 3. the metrics registry ----------------------------------------
    print("\n=== metrics registry, Prometheus export (excerpt) ===")
    registry = MetricsRegistry()
    registry.counter("example_queries").inc()
    registry.register("search", stats)
    for line in export_prometheus(registry).splitlines():
        if "TYPE" not in line:
            print(f"  {line}")

    # --- 4. slow-query forensics in the engine --------------------------
    print("\n=== slow-query forensics ===")
    with QueryEngine(
        tree,
        config=QueryConfig(k=10),
        options=EngineOptions(workers=1, slow_query_ms=0.0),
    ) as engine:
        for q in [(100.0, 900.0), (500.0, 500.0), (900.0, 100.0),
                  (500.0, 500.0)]:          # the repeat is a cache hit
            engine.query(q)
        log = engine.slow_queries
        print(f"executed queries logged: {log.observed} "
              f"(cache hits are never logged)")
        worst = max(log.records(), key=lambda r: r.latency_ms)
        print(f"worst request #{worst.request_id}: "
              f"{worst.latency_ms:.3f} ms, "
              f"{worst.stats['nodes_accessed']} pages, "
              f"{len(worst.trace)} trace events preserved")
        snap = engine.stats()
        print(f"engine: {snap.queries} queries, "
              f"{snap.cache_hits} cache hit(s), "
              f"p99 {snap.latency_p99_ms:.3f} ms, "
              f"max {snap.latency_max_ms:.3f} ms")

    print("\nSame data, no code: python -m repro.obs trace / repro.obs top")


if __name__ == "__main__":
    main()
