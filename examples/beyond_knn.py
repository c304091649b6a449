#!/usr/bin/env python
"""Beyond k-NN: the query-type extensions built on the paper's machinery.

The MINDIST/MAXDIST metrics that power the SIGMOD'95 search also answer
several related questions with the same index:

- within-radius queries        ("everything closer than r"),
- farthest neighbors           ("the k most remote objects"),
- aggregate / group NN         ("best meeting point for three friends"),
- (1 + eps)-approximate k-NN   ("roughly nearest, fewer page reads").

Run with::

    python examples/beyond_knn.py
"""

from repro import QueryConfig, bulk_load, nearest
from repro.core import aggregate_nearest, farthest_best_first, within_distance
from repro.datasets import gaussian_clusters


def main() -> None:
    locations = gaussian_clusters(5000, seed=11, clusters=8, spread=25.0)
    tree = bulk_load(
        [(p, f"site-{i}") for i, p in enumerate(locations)], max_entries=28
    )
    print(f"Indexed {len(tree)} sites.\n")
    here = (500.0, 500.0)

    # Within-radius: all sites closer than 40 units.
    nearby = within_distance(tree, here, 40.0)
    print(f"{len(nearby)} sites within 40 units; nearest is "
          f"{nearby[0].payload} at {nearby[0].distance:.1f}."
          if nearby else "No sites within 40 units.")

    # Farthest neighbors: where NOT to send the delivery van.
    remotest, stats = farthest_best_first(tree, here, k=3)
    print(
        "\nThree most remote sites "
        f"(found reading {stats.nodes_accessed} pages):"
    )
    for n in remotest:
        print(f"  {n.payload:<10} at {n.distance:7.1f}")

    # Group NN: three friends pick the site minimizing total travel, and
    # the site minimizing the worst individual trip.
    friends = [(200.0, 200.0), (800.0, 250.0), (500.0, 850.0)]
    by_sum, _ = aggregate_nearest(tree, friends, k=1, aggregate="sum")
    by_max, _ = aggregate_nearest(tree, friends, k=1, aggregate="max")
    print(
        f"\nMeeting point minimizing total travel: {by_sum[0].payload} "
        f"(sum {by_sum[0].distance:.0f})"
    )
    print(
        f"Meeting point minimizing the worst trip: {by_max[0].payload} "
        f"(max {by_max[0].distance:.0f})"
    )

    # Approximate k-NN: trade a bounded error for fewer page reads.
    exact = nearest(tree, here, config=QueryConfig(k=8, epsilon=0.0))
    approx = nearest(tree, here, config=QueryConfig(k=8, epsilon=0.5))
    ratio = approx.distances()[-1] / exact.distances()[-1]
    print(
        f"\nApproximate 8-NN (eps=0.5): {approx.stats.nodes_accessed} pages "
        f"vs {exact.stats.nodes_accessed} exact; k-th distance ratio "
        f"{ratio:.3f} (guaranteed <= 1.5)."
    )


if __name__ == "__main__":
    main()
