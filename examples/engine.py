#!/usr/bin/env python
"""Serving k-NN batches with the QueryEngine.

The paper evaluates one query at a time; a deployed index answers
*streams* of them, and real query streams are clustered — many users ask
from the same popular locations.  This walkthrough builds an index of
delivery hubs, then serves a session-clustered batch three ways:

1. a bare sequential ``nearest`` loop (the baseline everything must tie);
2. a ``QueryEngine`` with its result cache — repeated points are answered
   without touching a single page;
3. the same engine after an insert, showing epoch-based invalidation:
   the mutation bumps the tree's epoch, every cached entry stops
   matching, and the next query sees the new point.

Run with::

    python examples/engine.py
"""

from repro import EngineOptions, QueryConfig, QueryEngine, nearest
from repro.bench.harness import build_tree, points_as_items
from repro.datasets import gaussian_clusters
from repro.datasets.queries import query_points_clustered_sessions


def main() -> None:
    # An index of 5,000 clustered "delivery hubs".
    hubs = gaussian_clusters(5_000, seed=7)
    tree = build_tree(points_as_items(hubs))

    # 2,000 queries drawn with repetition from 100 hot spots — the
    # session-clustered shape of real serving traffic.
    queries = query_points_clustered_sessions(
        2_000, hubs, distinct=100, seed=8
    )
    config = QueryConfig(k=3)

    # --- 1. the baseline: one nearest() call per query -----------------
    baseline = [nearest(tree, q, config=config) for q in queries]
    print(f"sequential loop answered {len(baseline)} queries")

    # --- 2. the engine: worker pool + result cache ---------------------
    with QueryEngine(
        tree, config=config, options=EngineOptions(workers=4)
    ) as engine:
        served = engine.query_batch(queries)
        assert all(
            got.distances() == want.distances()
            for got, want in zip(served, baseline)
        ), "engine answers must be identical to the sequential loop"

        stats = engine.stats()
        print(
            f"engine answered the same batch: "
            f"{stats.cache_hits:,} of {stats.queries:,} from cache "
            f"({100 * stats.hit_ratio:.1f}%), "
            f"only {stats.executed} searches executed"
        )
        print(
            f"pages per executed query: {stats.pages_per_query:.2f} "
            f"(cache hits touch zero pages)"
        )

        # --- 3. mutation through the engine invalidates the cache ------
        hot_spot = queries[0]
        before = engine.query(hot_spot)
        engine.insert(hot_spot, payload="new-hub-at-hot-spot")
        after = engine.query(hot_spot)
        assert after is not before, "epoch bump must bypass the old entry"
        assert after.payloads()[0] == "new-hub-at-hot-spot"
        print(
            f"after insert: epoch {engine.stats().epoch}, "
            f"{engine.stats().cache_invalidated} cached entries invalidated, "
            f"nearest hub is now {after.payloads()[0]!r} "
            f"at distance {after.distances()[0]:.1f}"
        )

        print()
        print(engine.stats().render())


if __name__ == "__main__":
    main()
