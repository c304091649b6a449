#!/usr/bin/env python
"""Quickstart: index points, run k-NN queries, inspect page accesses.

Run with::

    python examples/quickstart.py
"""

from repro import QueryConfig, RTree, nearest
from repro.storage import CountingTracker


def main() -> None:
    # 1. Build an index.  Payloads are arbitrary Python objects.
    tree = RTree(max_entries=8)
    cafes = {
        "Blue Bottle": (2.0, 3.0),
        "Ritual": (5.0, 1.0),
        "Sightglass": (4.0, 4.0),
        "Four Barrel": (9.0, 9.0),
        "Verve": (1.0, 8.0),
    }
    for name, location in cafes.items():
        tree.insert(location, payload=name)
    print(f"Indexed {len(tree)} cafes in an R-tree of height {tree.height}.")

    # 2. Ask for the 3 nearest cafes from a street corner.
    me = (3.0, 3.0)
    result = nearest(tree, me, k=3)
    print(f"\nThree cafes nearest to {me}:")
    for rank, neighbor in enumerate(result, start=1):
        print(f"  {rank}. {neighbor.payload:<12} at distance {neighbor.distance:.2f}")

    # 3. The paper's metric: how many pages (nodes) did the query touch?
    tracker = CountingTracker()
    nearest(tree, me, k=3, tracker=tracker)
    print(
        f"\nThe query read {tracker.stats.total} pages "
        f"({tracker.stats.internal} internal, {tracker.stats.leaf} leaf)."
    )

    # 4. Compare the paper's DFS search with the best-first alternative.
    dfs = nearest(tree, me, config=QueryConfig(k=3, algorithm="dfs"))
    bf = nearest(tree, me, config=QueryConfig(k=3, algorithm="best-first"))
    print(
        f"\nDFS read {dfs.stats.nodes_accessed} nodes, "
        f"best-first read {bf.stats.nodes_accessed}; "
        f"answers agree: {dfs.distances() == bf.distances()}"
    )


if __name__ == "__main__":
    main()
