#!/usr/bin/env python
"""Road-network nearest neighbors: the paper's TIGER/Line experiment shape.

The SIGMOD'95 evaluation indexes *street segments*, not points.  This
example shows the two-level distance scheme that makes that work:

- the R-tree prunes with MINDIST to each segment's bounding box,
- candidate segments are ranked by their *exact* point-to-segment distance
  via the ``object_distance_sq`` hook.

It also contrasts the result with the naive "distance to the MBR" answer,
which can pick the wrong street.

Run with::

    python examples/road_network_nn.py
"""

from repro import QueryConfig, bulk_load, nearest
from repro.storage import CountingTracker
from repro.datasets import road_segments
from repro.datasets.queries import query_points_uniform


def segment_distance_sq(query, segment, rect):
    """Exact squared distance from the query point to the street segment."""
    return segment.distance_squared_to(query)


def main() -> None:
    streets = road_segments(20000, seed=1995)
    tree = bulk_load(
        [(segment.mbr(), segment) for segment in streets], max_entries=28
    )
    print(
        f"Indexed {len(tree)} street segments "
        f"({tree.node_count} pages, height {tree.height})."
    )

    # "Where is the nearest road?" from a few random breakdown locations.
    print("\nNearest street (exact segment distance):")
    for q in query_points_uniform(5, seed=42):
        tracker = CountingTracker()
        result = nearest(
            tree, q,
            config=QueryConfig(k=1, object_distance_sq=segment_distance_sq),
            tracker=tracker,
        )
        nearest_street = result[0]
        print(
            f"  from ({q[0]:7.1f}, {q[1]:7.1f}): "
            f"street at {nearest_street.distance:6.2f} units, "
            f"{tracker.stats.total} pages read"
        )

    # Why the hook matters: the MBR of a long diagonal street can be close
    # while the street itself is far.
    q = (500.0, 500.0)
    exact = nearest(
        tree, q, config=QueryConfig(k=1, object_distance_sq=segment_distance_sq)
    )
    mbr_only = nearest(tree, q, k=1)
    print(
        f"\nAt {q}: exact nearest street is {exact.distances()[0]:.2f} away; "
        f"ranking by MBR distance alone would report "
        f"{mbr_only.distances()[0]:.2f}."
    )

    # k-nearest streets: the emergency-services question ("which 5 street
    # segments should we search first?").
    five = nearest(
        tree, q, config=QueryConfig(k=5, object_distance_sq=segment_distance_sq)
    )
    print("\nFive nearest streets:")
    for rank, n in enumerate(five, start=1):
        mid = n.payload.midpoint()
        print(
            f"  {rank}. segment through ({mid[0]:6.1f}, {mid[1]:6.1f}) "
            f"at {n.distance:6.2f}"
        )


if __name__ == "__main__":
    main()
