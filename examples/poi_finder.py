#!/usr/bin/env python
"""POI finder: a city-scale "find the k nearest X" service.

Demonstrates the workload the paper motivates — interactive
nearest-point-of-interest queries — including:

- bulk loading a large clustered POI set,
- per-category filtering by maintaining one index per category,
- an LRU buffer pool shared across a user's query session,
- incremental distance browsing ("keep going until I say stop").

Run with::

    python examples/poi_finder.py
"""

import random

from repro import bulk_load, nearest, nearest_incremental
from repro.storage import LruBufferPool
from repro.datasets import gaussian_clusters

CATEGORIES = ("cafe", "pharmacy", "bookstore", "bakery")


def build_city(seed: int = 7):
    """One bulk-loaded index per POI category over a clustered city map."""
    rng = random.Random(seed)
    indexes = {}
    for offset, category in enumerate(CATEGORIES):
        locations = gaussian_clusters(
            4000, seed=seed + offset, clusters=12, spread=15.0
        )
        items = [
            (location, {"category": category, "id": f"{category}-{i}"})
            for i, location in enumerate(locations)
        ]
        indexes[category] = bulk_load(items, max_entries=28)
    return indexes, rng


def main() -> None:
    indexes, rng = build_city()
    total = sum(len(tree) for tree in indexes.values())
    print(f"City built: {total} POIs across {len(indexes)} categories.\n")

    # A user session: several queries from nearby locations share a buffer,
    # so repeat page reads are absorbed (the paper's buffering experiment).
    session_buffer = LruBufferPool(64)
    user = (rng.uniform(400, 600), rng.uniform(400, 600))

    for category in CATEGORIES:
        result = nearest(
            indexes[category], user, k=3, tracker=session_buffer
        )
        names = ", ".join(n.payload["id"] for n in result)
        print(
            f"3 nearest {category + 's':<12} -> {names} "
            f"(closest at {result.distances()[0]:.1f})"
        )

    stats = session_buffer.stats
    print(
        f"\nSession I/O: {stats.accesses} logical page reads, "
        f"{stats.misses} went to disk (hit ratio {stats.hit_ratio:.0%})."
    )

    # Distance browsing: walk cafes outward until we leave a 100-unit
    # radius — no k needs to be chosen up front.
    print("\nAll cafes within 100 units, nearest first:")
    for neighbor in nearest_incremental(indexes["cafe"], user):
        if neighbor.distance > 100.0:
            break
        print(f"  {neighbor.payload['id']:<10} {neighbor.distance:6.1f}")


if __name__ == "__main__":
    main()
