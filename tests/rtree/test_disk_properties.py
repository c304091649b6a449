"""Property-based disk R-tree tests: arbitrary data round-trips exactly."""

import pytest

from hypothesis import given, settings, strategies as st

from repro import RTree, linear_scan, nearest
from repro.rtree.disk import DiskRTree, disk_fanout, write_tree
from tests.conftest import assert_same_distances

coord = st.floats(
    min_value=-1000.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)
point2d = st.tuples(coord, coord)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(point2d, min_size=1, max_size=200),
    point2d,
    st.integers(1, 6),
    st.sampled_from([256, 1024, 4096]),
    st.integers(1, 8),
)
def test_disk_roundtrip_property(
    tmp_path_factory, points, query, k, page_size, cache_nodes
):
    tree = RTree(max_entries=min(8, disk_fanout(page_size, 2)))
    for i, p in enumerate(points):
        tree.insert(p, payload=i)
    path = tmp_path_factory.mktemp("prop") / "t.rnn"
    write_tree(tree, path, page_size=page_size)
    with DiskRTree(path, page_size=page_size, cache_nodes=cache_nodes) as disk:
        assert len(disk) == len(points)
        got = nearest(disk, query, k=k)
        assert_same_distances(
            got.neighbors, linear_scan(tree, query, k=k), tolerance=1e-6
        )
        # Every payload id must survive the round trip.
        assert sorted(payload for _, payload in disk.items()) == list(
            range(len(points))
        )


@settings(max_examples=15, deadline=None)
@given(st.lists(point2d, min_size=1, max_size=150))
def test_disk_traversal_identical_to_memory(tmp_path_factory, points):
    from repro.storage import CountingTracker

    tree = RTree(max_entries=6)
    for i, p in enumerate(points):
        tree.insert(p, payload=i)
    path = tmp_path_factory.mktemp("prop2") / "t.rnn"
    write_tree(tree, path, page_size=1024)
    with DiskRTree(path, page_size=1024) as disk:
        mem_tracker, disk_tracker = CountingTracker(), CountingTracker()
        nearest(tree, (0.0, 0.0), k=3, tracker=mem_tracker)
        nearest(disk, (0.0, 0.0), k=3, tracker=disk_tracker)
        # Same logical page count; page *ids* differ (page numbering vs
        # node numbering) but the traversal size must match exactly.
        assert mem_tracker.stats.total == disk_tracker.stats.total
