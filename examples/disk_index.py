#!/usr/bin/env python
"""Disk-resident index: run the paper's search against a real binary file.

The other examples simulate page I/O with trackers; this one makes it
physical.  A bulk-loaded tree is serialized so each node occupies one
4 KiB file page, reopened as a :class:`DiskRTree`, and queried with the
unmodified SIGMOD'95 search — ``file_reads`` then counts actual pages
pulled from the file, through a decoded-node LRU cache.

The second half exercises the fault-tolerance layer: a single bit of the
file is flipped, ``scrub`` pinpoints the damaged page, a degraded query
(``on_corrupt="skip"``) keeps serving with an explicit warning, and the
index is recovered by an atomic rewrite.

Run with::

    python examples/disk_index.py
"""

import os
import tempfile
import warnings

from repro import DiskRTree, bulk_load, nearest, write_tree
from repro.rtree import scrub
from repro.errors import ChecksumError, CorruptionWarning
from repro.rtree.disk import disk_fanout
from repro.datasets import uniform_points
from repro.datasets.queries import query_points_uniform

PAGE_SIZE = 4096


def main() -> None:
    # Payloads on disk are integer object ids; keep the objects in a list.
    station_names = [f"station-{i}" for i in range(50_000)]
    locations = uniform_points(len(station_names), seed=99)

    fanout = disk_fanout(PAGE_SIZE, dimension=2)
    tree = bulk_load(
        [(p, i) for i, p in enumerate(locations)],
        max_entries=fanout,
        min_entries=max(1, fanout * 2 // 5),
    )

    path = os.path.join(tempfile.gettempdir(), "stations.rnn")
    write_tree(tree, path, page_size=PAGE_SIZE)
    size_mib = os.path.getsize(path) / (1024 * 1024)
    print(
        f"Wrote {len(tree)} stations to {path} "
        f"({size_mib:.1f} MiB, {tree.node_count} node pages, "
        f"fanout {tree.max_entries})."
    )

    with DiskRTree(path, page_size=PAGE_SIZE, cache_nodes=64) as disk:
        queries = query_points_uniform(100, seed=100)
        for q in queries:
            nearest(disk, q, k=3)
        print(
            f"\n100 cold-ish 3-NN queries: {disk.file_reads} physical page "
            f"reads total ({disk.file_reads / 100:.2f} per query with a "
            f"64-node cache)."
        )

        before = disk.file_reads
        result = nearest(disk, (512.0, 512.0), k=3)
        print(
            f"\nNearest stations to (512, 512): "
            f"{[station_names[n.payload] for n in result]}"
        )
        print(
            f"That query touched {result.stats.nodes_accessed} logical pages "
            f"and {disk.file_reads - before} physical ones (rest were cached)."
        )
        root_page = disk.root.node_id

    # ------------------------------------------------------------------
    # Fault tolerance: flip one bit of the root page, then detect,
    # degrade, and recover.
    # ------------------------------------------------------------------
    print("\n--- corruption drill ---")
    report = scrub(path, page_size=PAGE_SIZE)
    print(f"Scrub before damage: {'CLEAN' if report.clean else 'DAMAGED'}.")

    with open(path, "r+b") as handle:
        handle.seek(root_page * PAGE_SIZE + 100)
        byte = handle.read(1)[0]
        handle.seek(root_page * PAGE_SIZE + 100)
        handle.write(bytes([byte ^ 0x01]))
    print(f"Flipped one bit in page {root_page} (the root node).")

    report = scrub(path, page_size=PAGE_SIZE)
    print(
        f"Scrub now finds {len(report.checksum_failures)} bad page(s): "
        f"{report.checksum_failures} — every page carries a CRC32."
    )

    try:
        with DiskRTree(path, page_size=PAGE_SIZE) as disk:
            nearest(disk, (512.0, 512.0), k=3)
    except ChecksumError as exc:
        print(f"Default mode refuses to serve bad data: {exc}")

    with DiskRTree(path, page_size=PAGE_SIZE, on_corrupt="skip") as disk:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", CorruptionWarning)
            degraded = nearest(disk, (512.0, 512.0), k=3)
        print(
            f"on_corrupt='skip' keeps serving: {len(degraded)} result(s), "
            f"stats.degraded={degraded.stats.degraded}, "
            f"{len(caught)} CorruptionWarning(s) emitted."
        )

    # Recovery: the source data still exists, so rewrite atomically.
    # (From a backup or ETL re-run in real life; here the in-memory tree.)
    write_tree(tree, path, page_size=PAGE_SIZE)
    report = scrub(path, page_size=PAGE_SIZE)
    with DiskRTree(path, page_size=PAGE_SIZE) as disk:
        recovered = nearest(disk, (512.0, 512.0), k=3)
    print(
        f"Rewrote the index (atomic temp+fsync+rename): scrub says "
        f"{'CLEAN' if report.clean else 'DAMAGED'}, nearest again "
        f"{[station_names[n.payload] for n in recovered]}."
    )

    os.remove(path)


if __name__ == "__main__":
    main()
