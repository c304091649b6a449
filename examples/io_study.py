#!/usr/bin/env python
"""I/O study: reproduce the paper's analysis style on your own workload.

Shows how to use the page model, trackers and buffer pools to answer the
questions the paper's evaluation asks — pages per query under different
orderings, k values, and buffer sizes — for a custom dataset, without the
bench harness.

Run with::

    python examples/io_study.py
"""

from repro import LruBufferPool, PageModel, QueryConfig, bulk_load, nearest
from repro.datasets import skewed_points
from repro.datasets.queries import query_points_uniform


def average_pages(tree, queries, config) -> float:
    """Average logical page reads per query."""
    total = 0
    for q in queries:
        result = nearest(tree, q, config=config)
        total += result.stats.nodes_accessed
    return total / len(queries)


def main() -> None:
    # Size nodes exactly like a 1 KiB-page disk implementation would.
    model = PageModel(page_size=1024, dimension=2)
    print(
        f"Page model: {model.page_size} B pages -> fanout {model.max_entries()}"
        f" (min fill {model.min_entries()})."
    )

    points = skewed_points(30000, seed=3)
    tree = bulk_load(
        [(p, i) for i, p in enumerate(points)],
        max_entries=model.max_entries(),
        min_entries=model.min_entries(),
    )
    queries = query_points_uniform(200, seed=4)
    print(f"Index: {len(tree)} points, {tree.node_count} pages.\n")

    # Question 1 (paper Fig. "ordering"): which ABL ordering reads less?
    for ordering in ("mindist", "minmaxdist"):
        pages = average_pages(tree, queries, QueryConfig(k=1, ordering=ordering))
        print(f"1-NN with {ordering:>10} ordering: {pages:5.2f} pages/query")

    # Question 2 (paper Fig. "k sweep"): cost of asking for more neighbors.
    print()
    for k in (1, 2, 4, 8, 16):
        pages = average_pages(tree, queries, QueryConfig(k=k))
        print(f"k={k:>2}: {pages:5.2f} pages/query")

    # Question 3 (paper Fig. "buffering"): what does a buffer save?
    print()
    for capacity in (0, 8, 32, 128):
        pool = LruBufferPool(capacity)
        for q in queries:
            nearest(tree, q, k=4, tracker=pool)
        disk_reads = pool.inner.stats.total / len(queries)
        print(
            f"LRU buffer {capacity:>3} pages: {disk_reads:5.2f} disk "
            f"reads/query (hit ratio {pool.stats.hit_ratio:.0%})"
        )


if __name__ == "__main__":
    main()
