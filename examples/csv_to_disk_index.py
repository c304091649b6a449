#!/usr/bin/env python
"""End-to-end ETL: CSV in, binary disk index out, queries against the file.

The complete downstream-user workflow:

1. load points from a CSV your GIS exported (`load_points_csv`),
2. build and persist a packed disk index in one call (`build_disk_index`),
3. answer interactive queries straight off the file — k-NN, within-radius
   and incremental browsing — while watching physical page reads.

Run with::

    python examples/csv_to_disk_index.py
"""

import csv
import os
import random
import tempfile

from repro import nearest
from repro.core import within_distance
from repro.datasets import load_points_csv
from repro.rtree.disk import build_disk_index


def write_demo_csv(path: str, n: int = 20_000) -> None:
    """Fake the GIS export: n charging stations with ids and names."""
    rng = random.Random(2026)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["station", "lon", "lat"])
        for i in range(n):
            writer.writerow(
                [f"CH-{i:05d}", f"{rng.uniform(0, 360):.6f}",
                 f"{rng.uniform(0, 180):.6f}"]
            )


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-etl-")
    csv_path = os.path.join(workdir, "stations.csv")
    index_path = os.path.join(workdir, "stations.rnn")

    write_demo_csv(csv_path)
    items = load_points_csv(
        csv_path, coordinate_columns=("lon", "lat"), payload_column="station"
    )
    print(f"Loaded {len(items)} stations from {csv_path}.")

    # Disk payloads are int ids; keep the names in a side table.
    names = [payload for _, payload in items]
    disk_items = [(point, i) for i, (point, _) in enumerate(items)]

    with build_disk_index(disk_items, index_path, page_size=4096) as index:
        size_kib = os.path.getsize(index_path) // 1024
        print(
            f"Disk index: {index_path} ({size_kib} KiB, "
            f"{index.node_count} pages, height {index.height}).\n"
        )

        me = (180.0, 90.0)
        result = nearest(index, me, k=3)
        print(f"3 stations nearest to {me}:")
        for neighbor in result:
            print(f"  {names[neighbor.payload]}  at {neighbor.distance:.3f}")

        nearby = within_distance(index, me, 1.0)
        print(f"\n{len(nearby)} stations within 1.0 degrees.")
        print(
            f"Physical reads so far: {index.file_reads} pages "
            f"(logical for the k-NN query alone: "
            f"{result.stats.nodes_accessed})."
        )

    for path in (csv_path, index_path):
        os.remove(path)
    os.rmdir(workdir)


if __name__ == "__main__":
    main()
