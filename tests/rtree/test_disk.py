"""Unit and integration tests for the disk-backed R-tree."""

import pytest

from repro import (
    QueryConfig,
    RTree,
    bulk_load,
    linear_scan_items,
    nearest,
    within_distance,
)
from repro.core.farthest import farthest_best_first
from repro.core.knn_best_first import nearest_incremental
from repro.datasets import uniform_points
from repro.errors import InvalidParameterError
from repro.geometry.rect import Rect
from repro.rtree.disk import DiskRTree, write_tree
from repro.storage.pagefile import PageFileError
from tests.conftest import assert_same_distances


@pytest.fixture(scope="module")
def points():
    return uniform_points(3000, seed=71)


@pytest.fixture(scope="module")
def memory_tree(points):
    return bulk_load([(p, i) for i, p in enumerate(points)], max_entries=28)


@pytest.fixture
def disk_path(tmp_path, memory_tree):
    path = tmp_path / "tree.rnn"
    write_tree(memory_tree, path, page_size=4096)
    return path


def oracle(points, q, k):
    items = [(Rect.from_point(p), i) for i, p in enumerate(points)]
    return linear_scan_items(items, q, k=k)


class TestWriteTree:
    def test_empty_tree_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            write_tree(RTree(), tmp_path / "x.rnn")

    def test_non_int_payload_rejected(self, tmp_path):
        tree = RTree()
        tree.insert((0.0, 0.0), payload="name")
        with pytest.raises(InvalidParameterError):
            write_tree(tree, tmp_path / "x.rnn")

    def test_negative_payload_rejected(self, tmp_path):
        tree = RTree()
        tree.insert((0.0, 0.0), payload=-1)
        with pytest.raises(InvalidParameterError):
            write_tree(tree, tmp_path / "x.rnn")

    def test_fanout_must_fit_page(self, tmp_path):
        tree = RTree(max_entries=100)
        tree.insert((0.0, 0.0), payload=0)
        with pytest.raises(InvalidParameterError):
            write_tree(tree, tmp_path / "x.rnn", page_size=256)

    def test_file_has_one_page_per_node_plus_header(
        self, disk_path, memory_tree
    ):
        import os

        pages = os.path.getsize(disk_path) // 4096
        assert pages == memory_tree.node_count + 1


class TestOpen:
    def test_not_a_tree_file(self, tmp_path):
        junk = tmp_path / "junk.rnn"
        junk.write_bytes(b"\x00" * 8192)
        with pytest.raises(PageFileError):
            DiskRTree(junk, page_size=4096)

    def test_wrong_page_size(self, disk_path):
        with pytest.raises(PageFileError):
            DiskRTree(disk_path, page_size=8192)

    def test_metadata_matches_source(self, disk_path, memory_tree):
        with DiskRTree(disk_path) as disk:
            assert len(disk) == len(memory_tree)
            assert disk.height == memory_tree.height
            assert disk.node_count == memory_tree.node_count
            assert disk.dimension == memory_tree.dimension
            assert disk.max_entries == memory_tree.max_entries

    def test_bad_cache_size(self, disk_path):
        with pytest.raises(InvalidParameterError):
            DiskRTree(disk_path, cache_nodes=0)


class TestQueries:
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_knn_matches_oracle(self, disk_path, points, k):
        with DiskRTree(disk_path) as disk:
            for q in [(0.0, 0.0), (500.0, 500.0), (77.0, 913.0)]:
                for algorithm in ("dfs", "best-first"):
                    got = nearest(
                        disk, q, k=k, config=QueryConfig(algorithm=algorithm)
                    )
                    assert_same_distances(got.neighbors, oracle(points, q, k))

    def test_incremental_and_within(self, disk_path, points):
        with DiskRTree(disk_path) as disk:
            q = (250.0, 250.0)
            stream = nearest_incremental(disk, q)
            first = [next(stream) for _ in range(4)]
            assert_same_distances(first, oracle(points, q, 4))
            w = within_distance(disk, q, 25.0)
            assert all(n.distance <= 25.0 for n in w)

    def test_farthest(self, disk_path, points):
        from repro.geometry.point import euclidean

        with DiskRTree(disk_path) as disk:
            got, _ = farthest_best_first(disk, (500.0, 500.0), k=3)
            expected = sorted(
                (euclidean((500.0, 500.0), p) for p in points), reverse=True
            )[:3]
            assert [n.distance for n in got] == pytest.approx(expected)

    def test_items_roundtrip(self, disk_path, points):
        with DiskRTree(disk_path) as disk:
            payloads = sorted(payload for _, payload in disk.items())
            assert payloads == list(range(len(points)))

    def test_window_query(self, disk_path, points):
        window = Rect((100.0, 100.0), (200.0, 200.0))
        with DiskRTree(disk_path) as disk:
            got = sorted(p for _, p in disk.search(window))
        expected = sorted(
            i for i, p in enumerate(points) if window.contains_point(p)
        )
        assert got == expected


class TestPhysicalIO:
    def test_query_reads_few_pages(self, disk_path, memory_tree):
        with DiskRTree(disk_path, cache_nodes=4) as disk:
            nearest(disk, (500.0, 500.0), k=1)
            assert 0 < disk.file_reads <= memory_tree.height * 6

    def test_cache_absorbs_repeat_queries(self, disk_path):
        with DiskRTree(disk_path, cache_nodes=512) as disk:
            nearest(disk, (500.0, 500.0), k=3)
            after_first = disk.file_reads
            for _ in range(5):
                nearest(disk, (500.0, 500.0), k=3)
            assert disk.file_reads == after_first

    def test_tiny_cache_rereads(self, disk_path):
        with DiskRTree(disk_path, cache_nodes=1) as disk:
            for x in range(0, 1000, 100):
                nearest(disk, (float(x), 500.0), k=2)
            small_cache_reads = disk.file_reads
        with DiskRTree(disk_path, cache_nodes=512) as disk:
            for x in range(0, 1000, 100):
                nearest(disk, (float(x), 500.0), k=2)
            big_cache_reads = disk.file_reads
        assert big_cache_reads < small_cache_reads

    def test_logical_accesses_match_memory_tree(
        self, disk_path, memory_tree
    ):
        # The traversal (and hence the paper's logical page counts) is
        # identical on disk and in memory; only physical I/O differs.
        q = (321.0, 654.0)
        mem = nearest(memory_tree, q, k=4)
        with DiskRTree(disk_path) as disk:
            dsk = nearest(disk, q, k=4)
        assert dsk.stats.nodes_accessed == mem.stats.nodes_accessed
        assert dsk.distances() == pytest.approx(mem.distances())
