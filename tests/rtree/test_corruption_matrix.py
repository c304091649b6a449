"""Corruption matrix: the fault-tolerance claims of the v2 disk format.

Three claims, each tested mechanically:

1. *Detection* — flipping any single byte of any page in an ``RNN2``
   file, header included, is detected: the page's CRC32 fails, so the
   flip surfaces in the scrub report and raises
   :class:`~repro.errors.ChecksumError` on the query path.
2. *Atomicity* — killing ``write_tree`` at any injected fault point
   never leaves a loadable-but-wrong index at the destination: the old
   file (or its absence) survives byte-for-byte.
3. *One format* — a file whose magic is not ``RNN2`` (an ``RNN1``
   relabel included) is refused at open and reported by scrub; no magic
   switches the checksums off.

The fault-injection seed is fixed (overridable via ``REPRO_FAULT_SEED``)
so CI runs are reproducible.
"""

import functools
import glob
import os
import warnings
from random import Random

import pytest

from repro import bulk_load, nearest
from repro.baselines import linear_scan_items
from repro.datasets import uniform_points
from repro.errors import (
    ChecksumError,
    CorruptionWarning,
    PageFileError,
    TornWriteError,
)
from repro.geometry.rect import Rect
from repro.rtree.disk import DiskRTree, write_tree
from repro.rtree.scrub import scrub, verify_checksums
from repro.storage.faults import FaultInjectingPageFile, FaultPlan
from repro.storage.pagefile import RetryPolicy

SEED = int(os.environ.get("REPRO_FAULT_SEED", "19950523"))
PAGE_SIZE = 256

QUERIES = [(0.0, 0.0), (500.0, 500.0), (873.0, 121.0)]


@pytest.fixture(scope="module")
def points():
    return uniform_points(150, seed=SEED % 10_000)


@pytest.fixture(scope="module")
def tree(points):
    return bulk_load([(p, i) for i, p in enumerate(points)], max_entries=5)


@pytest.fixture
def disk_path(tmp_path, tree):
    path = tmp_path / "matrix.rnn"
    write_tree(tree, path, page_size=PAGE_SIZE)
    return path


def expected_knn(points, q, k=3):
    items = [(Rect.from_point(p), i) for i, p in enumerate(points)]
    return [n.payload for n in linear_scan_items(items, q, k=k)]


class TestSingleByteFlipDetection:
    def test_every_flip_in_every_data_page_breaks_its_checksum(
        self, disk_path
    ):
        """Exhaustive: all ~N*page_size single-byte corruptions detected."""
        pristine = disk_path.read_bytes()
        undetected = []
        for offset in range(len(pristine)):  # the header page too
            page_id = offset // PAGE_SIZE
            data = bytearray(pristine)
            data[offset] ^= 0x5A
            disk_path.write_bytes(bytes(data))
            if verify_checksums(disk_path, page_size=PAGE_SIZE) != [page_id]:
                undetected.append(offset)
        disk_path.write_bytes(pristine)
        assert not undetected, (
            f"{len(undetected)} byte flips escaped checksum detection "
            f"at offsets {undetected[:10]}..."
        )

    def test_header_flips_detected_too(self, disk_path):
        pristine = disk_path.read_bytes()
        rng = Random(SEED)
        for _ in range(25):
            offset = rng.randrange(0, PAGE_SIZE)
            data = bytearray(pristine)
            data[offset] ^= 1 << rng.randrange(8)
            disk_path.write_bytes(bytes(data))
            # Either the magic/page-size sanity checks or the header CRC
            # must refuse the file; it can never open cleanly.
            with pytest.raises(PageFileError):
                DiskRTree(disk_path, page_size=PAGE_SIZE)
        disk_path.write_bytes(pristine)

    def test_sampled_flips_raise_or_surface_in_scrub(self, disk_path, points):
        """Through the full stack: query raises ChecksumError, scrub reports."""
        pristine = disk_path.read_bytes()
        rng = Random(SEED + 1)
        for _ in range(30):
            offset = rng.randrange(PAGE_SIZE, len(pristine))
            page_id = offset // PAGE_SIZE
            data = bytearray(pristine)
            data[offset] ^= 1 << rng.randrange(8)
            disk_path.write_bytes(bytes(data))

            report = scrub(disk_path, page_size=PAGE_SIZE)
            assert page_id in report.checksum_failures
            assert not report.clean

            with DiskRTree(
                disk_path, page_size=PAGE_SIZE, cache_nodes=1
            ) as disk:
                try:
                    for q in QUERIES:
                        nearest(disk, q, k=3)
                    touched = False  # query never visited the bad page
                except ChecksumError as exc:
                    touched = True
                    assert exc.page_id == page_id
                if not touched:
                    # Provably harmless for queries that avoid the page —
                    # but a full walk must still trip over it.
                    with pytest.raises(ChecksumError):
                        list(disk.items())
        disk_path.write_bytes(pristine)


class TestAtomicWrites:
    def test_kill_at_every_write_point_preserves_old_index(
        self, tmp_path, tree, points
    ):
        path = tmp_path / "atomic.rnn"
        write_tree(tree, path, page_size=PAGE_SIZE)
        pristine = path.read_bytes()
        baseline = [expected_knn(points, q) for q in QUERIES]

        new_points = uniform_points(150, seed=SEED % 10_000 + 1)
        new_tree = bulk_load(
            [(p, i) for i, p in enumerate(new_points)], max_entries=5
        )

        kill_points = 0
        for n in range(500):
            factory = functools.partial(
                FaultInjectingPageFile,
                plan=FaultPlan(fail_after_writes=n, seed=SEED + n),
            )
            try:
                write_tree(
                    new_tree, path, page_size=PAGE_SIZE,
                    page_file_factory=factory,
                )
                break  # n exceeded the total writes: success
            except TornWriteError:
                kill_points += 1
                assert path.read_bytes() == pristine, (
                    f"kill point {n} modified the destination file"
                )
                with DiskRTree(path, page_size=PAGE_SIZE) as disk:
                    for q, expect in zip(QUERIES, baseline):
                        assert nearest(disk, q, k=3).payloads() == expect
        else:
            pytest.fail("write_tree never succeeded")
        assert kill_points > 10  # one per node page + header
        assert not glob.glob(str(path) + ".tmp-*"), "temp file leaked"
        # The final, un-killed write really did replace the index.
        with DiskRTree(path, page_size=PAGE_SIZE) as disk:
            q = QUERIES[1]
            assert nearest(disk, q, k=3).payloads() == expected_knn(
                new_points, q
            )

    def test_kill_before_any_write_leaves_no_file(self, tmp_path, tree):
        path = tmp_path / "never_existed.rnn"
        factory = functools.partial(
            FaultInjectingPageFile,
            plan=FaultPlan(fail_after_writes=0, seed=SEED),
        )
        with pytest.raises(TornWriteError):
            write_tree(tree, path, page_size=PAGE_SIZE, page_file_factory=factory)
        assert not path.exists()
        assert not list(tmp_path.iterdir()), "temp file leaked"


class TestOneFormat:
    def test_rnn1_relabel_is_refused_everywhere(self, disk_path):
        """An ``RNN1`` magic must not switch off the checksums."""
        data = bytearray(disk_path.read_bytes())
        data[3] = ord("1")  # RNN2 -> RNN1
        data[2 * PAGE_SIZE + 40] ^= 0x5A  # and damage a data page
        disk_path.write_bytes(bytes(data))

        with pytest.raises(PageFileError):
            DiskRTree(disk_path, page_size=PAGE_SIZE)
        report = scrub(disk_path, page_size=PAGE_SIZE)
        assert not report.clean
        assert any(i.kind == "header" for i in report.issues)
        assert "CLEAN" not in report.render()
        assert 0 in verify_checksums(disk_path, page_size=PAGE_SIZE)


class TestGracefulDegradation:
    def _corrupt_root(self, disk_path):
        with DiskRTree(disk_path, page_size=PAGE_SIZE) as disk:
            root_page = disk.root.node_id
        data = bytearray(disk_path.read_bytes())
        data[root_page * PAGE_SIZE + 9] ^= 0x10
        disk_path.write_bytes(bytes(data))
        return root_page

    def test_skip_mode_warns_and_flags_stats(self, disk_path):
        root_page = self._corrupt_root(disk_path)
        with DiskRTree(
            disk_path, page_size=PAGE_SIZE, on_corrupt="skip"
        ) as disk:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = nearest(disk, (500.0, 500.0), k=3)
            assert result.stats.degraded
            assert result.stats.pages_skipped_corrupt >= 1
            assert len(result) == 0  # root gone: nothing reachable
            assert disk.degraded
            assert root_page in disk.corrupt_pages
            assert any(
                issubclass(w.category, CorruptionWarning) for w in caught
            )

    def test_skip_mode_warns_once_per_page(self, disk_path):
        self._corrupt_root(disk_path)
        with DiskRTree(
            disk_path, page_size=PAGE_SIZE, on_corrupt="skip"
        ) as disk:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                nearest(disk, (500.0, 500.0), k=3)
                nearest(disk, (100.0, 100.0), k=3)
            corruption = [
                w for w in caught
                if issubclass(w.category, CorruptionWarning)
            ]
            assert len(corruption) == 1
            # ...but every query's stats still reflect the skip.
            assert disk.pages_skipped == 2

    def test_raise_mode_is_default(self, disk_path):
        self._corrupt_root(disk_path)
        with DiskRTree(disk_path, page_size=PAGE_SIZE) as disk:
            with pytest.raises(ChecksumError):
                nearest(disk, (500.0, 500.0), k=3)

    def test_clean_file_stats_not_degraded(self, disk_path):
        with DiskRTree(
            disk_path, page_size=PAGE_SIZE, on_corrupt="skip"
        ) as disk:
            result = nearest(disk, (500.0, 500.0), k=3)
            assert not result.stats.degraded
            assert result.stats.pages_skipped_corrupt == 0
            assert not disk.degraded

    def test_invalid_mode_rejected(self, disk_path):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            DiskRTree(disk_path, page_size=PAGE_SIZE, on_corrupt="ignore")


class TestTransientErrorRetry:
    def test_bounded_transients_are_absorbed(self, disk_path, points):
        plan = FaultPlan(
            transient_error_prob=0.3, transient_error_limit=5, seed=SEED
        )
        pages = FaultInjectingPageFile(
            disk_path, page_size=PAGE_SIZE, plan=plan
        )
        retry = RetryPolicy(attempts=8, sleep=lambda _s: None)
        with DiskRTree(page_file=pages, retry=retry, cache_nodes=1) as disk:
            for q in QUERIES:
                assert nearest(disk, q, k=3).payloads() == expected_knn(
                    points, q
                )
        transients = pages.faults_injected["transient"]
        assert 1 <= transients <= 5
        assert retry.retries_performed == transients

    def test_unbounded_transients_exhaust_the_policy(self, disk_path):
        plan = FaultPlan(transient_error_prob=1.0, seed=SEED)
        pages = FaultInjectingPageFile(
            disk_path, page_size=PAGE_SIZE, plan=plan
        )
        from repro.errors import TransientIOError

        with pytest.raises(TransientIOError):
            DiskRTree(
                page_file=pages,
                retry=RetryPolicy(attempts=3, sleep=lambda _s: None),
            )
        pages.close()
