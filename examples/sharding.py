#!/usr/bin/env python
"""Sharded multi-process serving: scatter-gather k-NN over shared memory.

``ShardedQueryEngine`` partitions one dataset into N ``PackedTree``
shards, publishes each as a shared-memory slab, and hosts it in a
worker *process* — the route around the GIL for CPU-bound query load.
This example shows the parts that matter to a caller:

- answers are identical to the single-tree engine, bit for bit,
- the shard MBRs prune whole shards per query (the paper's P3, lifted),
- ``republish`` swaps in a fresh snapshot atomically,
- ``close`` tears down workers and unlinks every shared-memory segment.

Architecture and guarantees: docs/SHARDING.md.

Run with::

    python examples/sharding.py
"""

import glob
import random
from dataclasses import replace

from repro import (
    EngineOptions,
    QueryConfig,
    QueryEngine,
    Rect,
    ShardedQueryEngine,
    bulk_load,
)


def main() -> None:
    rng = random.Random(1995)
    items = [
        (Rect.from_point((rng.uniform(0, 1000), rng.uniform(0, 1000))), f"poi-{i}")
        for i in range(4000)
    ]
    queries = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(50)]
    config = QueryConfig(k=5)
    options = EngineOptions(workers=1, cache_size=0)

    sharded = ShardedQueryEngine(items=items, shards=4, options=options)
    snap = sharded.snapshot()
    print(
        f"Sharded engine: backend={snap.backend!r}, {snap.size} objects in "
        f"{snap.detail['shards']} shards, epoch {snap.epoch}."
    )

    # Same answers as the single-tree engine — the merge is exact.
    reference = QueryEngine(
        bulk_load(items), options=replace(options, packed=True)
    )
    agree = all(
        [n.payload for n in sharded.query(q, config=config).neighbors]
        == [n.payload for n in reference.query(q, config=config).neighbors]
        for q in queries
    )
    print(f"All {len(queries)} queries match the single-tree engine: {agree}")

    # Shard pruning: the nearest shard's k-th distance rules the rest out.
    before = sharded.stats().shards_pruned
    print(
        f"Shard-level P3 pruned {before} of "
        f"{len(queries) * snap.detail['shards']} shard visits "
        f"({before / (len(queries) * snap.detail['shards']):.0%})."
    )

    # Live republish: new snapshot, new epoch, old slabs unlinked.
    sharded.republish(items=items[: len(items) // 2])
    print(
        f"After republish: {sharded.snapshot().size} objects, "
        f"epoch {sharded.snapshot().epoch}."
    )

    prefix = sharded.name_prefix
    reference.close()
    sharded.close()
    leaked = glob.glob(f"/dev/shm/{prefix}*")
    print(f"Segments left in /dev/shm after close: {len(leaked)}")


if __name__ == "__main__":
    main()
