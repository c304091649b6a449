"""A disk-backed, read-optimized R-tree over a binary page file.

:func:`write_tree` serializes any in-memory :class:`RTree` so that each
node occupies exactly one fixed-size page; :class:`DiskRTree` opens the
file and exposes the same node interface the search algorithms consume
(``root``, ``dimension``, ``len``), loading node pages lazily through an
internal LRU cache.  Every search in :mod:`repro.core` runs unmodified on
a :class:`DiskRTree` — and its ``file_reads`` counter then reports *real*
page I/O, not a simulation.

Payloads must be non-negative integers (object ids): real disk layouts
store fixed-width references, and an id into a caller-side table is the
standard contract.  Use ``enumerate`` over your objects when indexing.

Binary layout (little-endian):

- page 0 — header: magic ``RNN2``, page size, root page, node count,
  item count, dimension, height, fanout, min fill;
- one page per node: ``level:u16, entry_count:u16``, then per entry
  ``lo[dim]:f64, hi[dim]:f64, ref:u64`` where ``ref`` is a child page id
  (internal) or the payload id (leaf);
- every page, header included, ends in a CRC32 of its first
  ``page_size - 4`` bytes, verified on every read.

There is one format: a file with any other magic is refused with
:class:`~repro.errors.PageFileError`.  Writes are atomic: the tree is
written to a temp file, fsynced, and renamed over the target, so an
interrupted :func:`write_tree` never leaves a half-written index at the
destination path.

Failure handling knobs on :class:`DiskRTree`:

- ``retry`` — a :class:`~repro.storage.pagefile.RetryPolicy` applied to
  every physical page read, absorbing transient I/O errors;
- ``on_corrupt`` — ``"raise"`` (default) surfaces
  :class:`~repro.errors.ChecksumError` /
  :class:`~repro.errors.PageFileError`; ``"skip"`` degrades gracefully,
  treating the corrupt subtree as empty while warning with
  :class:`~repro.errors.CorruptionWarning` and counting the damage in
  ``pages_skipped`` / ``corrupt_pages`` (and, through the query façade,
  in ``SearchStats.pages_skipped_corrupt``).

Use :func:`repro.rtree.scrub.scrub` to audit a file offline.
"""

from __future__ import annotations

import itertools
import os
import struct
import threading
import warnings
import zlib
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import (
    ChecksumError,
    CorruptionWarning,
    GeometryError,
    InvalidParameterError,
)
from repro.geometry.rect import Rect
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.tree import RTree, TreeSnapshot
from repro.storage.breaker import CircuitBreaker
from repro.storage.pagefile import PageFile, PageFileError, RetryPolicy

__all__ = [
    "DiskRTree",
    "build_disk_index",
    "disk_fanout",
    "write_tree",
]

_MAGIC = b"RNN2"
_HEADER = struct.Struct("<4sIIIQHHHH")
_NODE_HEADER = struct.Struct("<HH")
_CRC = struct.Struct("<I")

_DEFAULT_CACHE_NODES = 64

_ON_CORRUPT_MODES = ("raise", "skip")

_tmp_counter = itertools.count()


def _entry_struct(dimension: int) -> struct.Struct:
    return struct.Struct(f"<{2 * dimension}dQ")


def _node_capacity(page_size: int, dimension: int) -> int:
    usable = page_size - _CRC.size - _NODE_HEADER.size
    return usable // _entry_struct(dimension).size


def _seal_page(payload: bytes, page_size: int) -> bytes:
    """Pad *payload* and append the CRC32 trailer."""
    body = payload.ljust(page_size - _CRC.size, b"\x00")
    return body + _CRC.pack(zlib.crc32(body))


def _verify_page(raw: bytes, page_id: int, path: str) -> bytes:
    """Check a page's CRC trailer; return the payload bytes."""
    body, trailer = raw[: -_CRC.size], raw[-_CRC.size :]
    (stored,) = _CRC.unpack(trailer)
    actual = zlib.crc32(body)
    if stored != actual:
        raise ChecksumError(
            f"checksum mismatch in page {page_id} of {path!r}: stored "
            f"0x{stored:08x}, computed 0x{actual:08x}",
            page_id=page_id,
        )
    return body


def disk_fanout(page_size: int = 4096, dimension: int = 2) -> int:
    """Largest tree fanout that fits one node into one disk page.

    Build the tree you intend to persist with
    ``max_entries=disk_fanout(page_size, dim)`` so pages are used fully.
    (This differs from :class:`repro.storage.pager.PageModel`, which models
    the paper's 4-byte-pointer layout; the on-disk format stores 8-byte
    refs, a 4-byte node header, and a 4-byte page checksum.)
    """
    capacity = _node_capacity(page_size, dimension)
    if capacity < 2:
        raise InvalidParameterError(
            f"page_size {page_size} cannot hold 2 entries of dimension "
            f"{dimension}"
        )
    return capacity


def _fsync_dir(directory: str) -> None:
    """Best-effort fsync of a directory (durable rename on POSIX)."""
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_tree(
    tree: RTree,
    path: Union[str, "object"],
    page_size: int = 4096,
    page_file_factory=PageFile,
) -> None:
    """Serialize *tree* to *path*, one node per *page_size*-byte page.

    The write is atomic and durable: pages land in a temp file in the
    same directory, the file is fsynced, then renamed over *path*
    (``os.replace``), and the directory entry is fsynced.  If the process
    dies — or any fault is injected — at *any* point before the rename,
    the destination path is untouched: it either keeps its previous
    contents or still does not exist.  The temp file is removed on error.

    Args:
        tree: The in-memory tree to persist (payloads must be
            non-negative ints below 2**64).
        path: Destination file path.
        page_size: Page size in bytes.
        page_file_factory: Factory used to open the temp page file —
            the fault-injection seam
            (:class:`~repro.storage.faults.FaultInjectingPageFile`).

    Raises :class:`InvalidParameterError` if the tree is empty, a payload
    is not an int, or a node cannot fit in a page of the given size.
    """
    if len(tree) == 0:
        raise InvalidParameterError("refusing to write an empty tree")
    dimension = tree.dimension
    capacity = _node_capacity(page_size, dimension)
    if tree.max_entries > capacity:
        raise InvalidParameterError(
            f"fanout {tree.max_entries} does not fit a {page_size}-byte page "
            f"({capacity} entries max for dimension {dimension})"
        )
    entry_struct = _entry_struct(dimension)

    path = os.fspath(path)
    tmp_path = f"{path}.tmp-{os.getpid()}-{next(_tmp_counter)}"

    try:
        with page_file_factory(tmp_path, page_size=page_size, create=True) as pages:
            node_count = 0

            def persist(node: Node) -> int:
                """Write *node* (post-order) and return its page id."""
                nonlocal node_count
                refs: List[int] = []
                for entry in node.entries:
                    if entry.child is not None:
                        refs.append(persist(entry.child))
                    else:
                        payload = entry.payload
                        if not isinstance(payload, int) or payload < 0:
                            raise InvalidParameterError(
                                "disk trees require non-negative int payloads; "
                                f"got {payload!r}"
                            )
                        refs.append(payload)
                blob = bytearray(
                    _NODE_HEADER.pack(node.level, len(node.entries))
                )
                for entry, ref in zip(node.entries, refs):
                    blob += entry_struct.pack(
                        *entry.rect.lo, *entry.rect.hi, ref
                    )
                page_id = pages.allocate()
                pages.write_page(page_id, _seal_page(bytes(blob), page_size))
                node_count += 1
                return page_id

            root_page = persist(tree.root)
            header = _HEADER.pack(
                _MAGIC,
                page_size,
                root_page,
                node_count,
                len(tree),
                dimension,
                tree.height,
                tree.max_entries,
                tree.min_entries,
            )
            pages.write_page(0, _seal_page(header, page_size))
            pages.sync()
        os.replace(tmp_path, path)
        _fsync_dir(os.path.dirname(path))
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise


def build_disk_index(
    items,
    path: Union[str, "object"],
    page_size: int = 4096,
    cache_nodes: int = _DEFAULT_CACHE_NODES,
) -> DiskRTree:
    """Bulk-build a disk index from ``(rect_or_point, payload_id)`` pairs.

    Convenience wrapper: STR-packs the items at the fanout that exactly
    fills a *page_size* page, writes the file, and opens it.  Payloads
    must be non-negative ints (see :func:`write_tree`).
    """
    from repro.rtree.bulk import bulk_load

    materialized = list(items)
    if not materialized:
        raise InvalidParameterError("cannot build a disk index from no items")
    first_rect = materialized[0][0]
    dimension = (
        first_rect.dimension
        if isinstance(first_rect, Rect)
        else len(first_rect)
    )
    fanout = disk_fanout(page_size, dimension)
    tree = bulk_load(
        materialized,
        max_entries=fanout,
        min_entries=max(1, fanout * 2 // 5),
    )
    write_tree(tree, path, page_size=page_size)
    return DiskRTree(path, page_size=page_size, cache_nodes=cache_nodes)


class _DiskNode(Node):
    """A lazily loaded node: entries are fetched through the tree's cache.

    Deliberately *not* memoized on the node object: the LRU cache in
    :class:`DiskRTree` is the single source of truth, so evictions really
    do force file re-reads (keeping ``file_reads`` honest).
    """

    __slots__ = ("_tree",)

    def __init__(self, tree: "DiskRTree", page_id: int, level: int) -> None:
        # Intentionally skip Node.__init__: entries are lazy.
        self.node_id = page_id
        self.level = level
        self.packed_index = -1
        self._tree = tree

    @property
    def entries(self) -> List[Entry]:  # type: ignore[override]
        return self._tree._load_entries(self)


class DiskRTree:
    """Read-only R-tree view over a page file written by :func:`write_tree`.

    Args:
        path: The page file (``RNN2``).
        page_size: Must match the file's (validated against the header).
        cache_nodes: Capacity of the internal decoded-node LRU cache; reads
            absorbed by the cache don't touch the file.  ``file_reads``
            exposes the physical page reads performed so far.
        on_corrupt: ``"raise"`` (default) propagates corruption as
            :class:`~repro.errors.ChecksumError` /
            :class:`~repro.errors.PageFileError`; ``"skip"`` treats each
            corrupt subtree as empty — every newly skipped page emits a
            :class:`~repro.errors.CorruptionWarning` once and is recorded
            in :attr:`corrupt_pages`, and :attr:`pages_skipped` counts
            skip events, so degraded (possibly incomplete) results are
            never silent.
        retry: :class:`~repro.storage.pagefile.RetryPolicy` applied to
            every physical page read (default: 3 attempts, exponential
            backoff from 1 ms).  Pass ``RetryPolicy(attempts=1)`` to
            disable retrying.
        page_file: An already-open :class:`PageFile` (or fault-injecting
            subclass) to use instead of opening *path*; takes ownership
            and closes it with the tree.
        breaker: Optional :class:`~repro.storage.breaker.CircuitBreaker`
            wrapping every page load (above the retry layer: one breaker
            failure = one exhausted retry sequence).  While the breaker
            is open, loads are refused instantly and degrade to
            ``on_corrupt="skip"`` semantics *regardless* of the
            configured ``on_corrupt`` — the subtree is dropped, counted
            in :attr:`pages_skipped` and :attr:`breaker_skips`, and the
            query's stats come back flagged degraded.  Refused pages are
            **not** recorded in :attr:`corrupt_pages` (nothing is known
            to be corrupt; the device is just being left alone to
            recover).

    All of :func:`repro.core.nearest_dfs`, the best-first/incremental
    searches, :func:`repro.core.within_distance`, farthest and aggregate
    queries run on this object unmodified.
    """

    def __init__(
        self,
        path: Union[str, "object", None] = None,
        page_size: int = 4096,
        cache_nodes: int = _DEFAULT_CACHE_NODES,
        on_corrupt: str = "raise",
        retry: Optional[RetryPolicy] = None,
        page_file: Optional[PageFile] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if cache_nodes < 1:
            raise InvalidParameterError(
                f"cache_nodes must be >= 1, got {cache_nodes}"
            )
        if on_corrupt not in _ON_CORRUPT_MODES:
            raise InvalidParameterError(
                f"on_corrupt must be one of {_ON_CORRUPT_MODES}, "
                f"got {on_corrupt!r}"
            )
        if page_file is not None:
            self._pages = page_file
            page_size = page_file.page_size
            path = page_file.path
        elif path is None:
            raise InvalidParameterError(
                "DiskRTree needs a path or an open page_file"
            )
        else:
            self._pages = PageFile(path, page_size=page_size, create=False)
        self.on_corrupt = on_corrupt
        self.retry = retry if retry is not None else RetryPolicy()
        # The breaker guards query-time loads only; the header bootstrap
        # below goes straight to retry.run — a tree that cannot read its
        # own header has nothing to degrade to.
        self.breaker = breaker
        #: Number of times a corrupt page was skipped (``on_corrupt="skip"``).
        self.pages_skipped = 0
        #: Of those, loads refused by an open circuit breaker.
        self.breaker_skips = 0
        #: Page id -> first error message, for every page ever skipped.
        self.corrupt_pages: Dict[int, str] = {}
        try:
            raw = self.retry.run(lambda: self._pages.read_page(0))
            self._pages.reads -= 1  # header read isn't part of query I/O
            try:
                (magic, stored_page_size, root_page, node_count, size,
                 dimension, height, max_entries, min_entries) = _HEADER.unpack(
                    raw[: _HEADER.size]
                )
            except struct.error as exc:
                raise PageFileError(f"corrupt header in {path!r}") from exc
            if magic != _MAGIC:
                raise PageFileError(f"{path!r} is not a disk R-tree file")
            if stored_page_size != page_size:
                raise PageFileError(
                    f"{path!r} was written with page_size={stored_page_size}, "
                    f"opened with {page_size}; reopen with the stored size"
                )
            _verify_page(raw, 0, self._pages.path)
        except BaseException:
            self._pages.close()
            raise
        self._size = size
        self.dimension = dimension
        self.height = height
        self.node_count = node_count
        self.max_entries = max_entries
        self.min_entries = min_entries
        self._entry_struct = _entry_struct(dimension)
        self._capacity = _node_capacity(page_size, dimension)
        self._cache: "OrderedDict[int, List[Entry]]" = OrderedDict()
        self._cache_capacity = cache_nodes
        # Serializes page reads and decoded-node cache updates so that
        # concurrent queries (repro.service.QueryEngine workers) never
        # corrupt the LRU order or interleave seek/read pairs.
        self._load_lock = threading.RLock()
        # One-shot PackedTree compile cache (the file is immutable).
        self._packed_cache = None
        self.root = _DiskNode(self, root_page, level=height - 1)

    # ------------------------------------------------------------------
    # Tree interface consumed by the search algorithms
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def epoch(self) -> int:
        """Mutation counter; a disk tree is read-only, so always 0."""
        return 0

    def snapshot(self, packed: bool = False) -> TreeSnapshot:
        """A :class:`TreeSnapshot`; never goes stale (the file is frozen).

        With ``packed=True`` the snapshot carries the
        :class:`~repro.packed.PackedTree` compile (see :meth:`packed`).
        """
        return TreeSnapshot(
            tree=self,
            epoch=0,
            packed=self.packed() if packed else None,
        )

    def packed(self) -> "object":
        """Compile this disk tree into a :class:`~repro.packed.PackedTree`.

        The compile reads every page exactly once (through the node
        cache); afterwards queries on the packed form touch no storage at
        all — the whole index lives in five flat arrays.  The result is
        cached for the life of this handle: the file is read-only, so it
        can never go stale.  Raises on corrupt pages under
        ``on_corrupt="raise"`` exactly like a query would; under
        ``"skip"`` the compile, like queries, silently omits unreadable
        subtrees (check :attr:`degraded`).
        """
        from repro.packed.layout import PackedTree

        with self._load_lock:
            cached = self._packed_cache
            if cached is not None:
                return cached
            compiled = PackedTree.from_tree(self)
            self._packed_cache = compiled
            return compiled

    def items(self) -> Iterator[Tuple[Rect, int]]:
        """Iterate all indexed ``(rect, payload_id)`` pairs."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in node.entries:
                    yield entry.rect, entry.payload
            else:
                stack.extend(e.child for e in node.entries)

    def search(self, rect: Rect) -> List[Tuple[Rect, int]]:
        """Window query over the disk tree."""
        results: List[Tuple[Rect, int]] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            for entry in node.entries:
                if entry.rect.intersects(rect):
                    if node.is_leaf:
                        results.append((entry.rect, entry.payload))
                    else:
                        stack.append(entry.child)
        return results

    # ------------------------------------------------------------------
    # Physical I/O
    # ------------------------------------------------------------------
    @property
    def file_reads(self) -> int:
        """Physical page reads performed so far (cache misses only)."""
        return self._pages.reads

    @property
    def degraded(self) -> bool:
        """True if any corrupt page has been skipped (results incomplete)."""
        return bool(self.corrupt_pages)

    def _decode_node(self, raw: bytes, node: "_DiskNode") -> List[Entry]:
        """Decode one node page, validating checksum and structure."""
        page_id = node.node_id
        raw = _verify_page(raw, page_id, self._pages.path)
        try:
            level, count = _NODE_HEADER.unpack_from(raw, 0)
        except struct.error as exc:
            raise PageFileError(
                f"corrupt node header in page {page_id}"
            ) from exc
        if count > self._capacity:
            raise PageFileError(
                f"page {page_id} claims {count} entries; at most "
                f"{self._capacity} fit a page"
            )
        if level != node.level:
            raise PageFileError(
                f"page {page_id} stores level {level}, expected "
                f"{node.level} from its parent"
            )
        entries: List[Entry] = []
        offset = _NODE_HEADER.size
        dim = self.dimension
        try:
            for _ in range(count):
                values = self._entry_struct.unpack_from(raw, offset)
                offset += self._entry_struct.size
                rect = Rect(values[:dim], values[dim : 2 * dim])
                ref = values[-1]
                if level == 0:
                    entries.append(Entry(rect, payload=ref))
                else:
                    if not 0 < ref < self._pages.page_count:
                        raise PageFileError(
                            f"page {page_id} references invalid child "
                            f"page {ref}"
                        )
                    entries.append(
                        Entry(rect, child=_DiskNode(self, ref, level - 1))
                    )
        except (struct.error, GeometryError) as exc:
            raise PageFileError(
                f"corrupt entry data in page {page_id}"
            ) from exc
        return entries

    def _load_entries(self, node: _DiskNode) -> List[Entry]:
        with self._load_lock:
            cached = self._cache.get(node.node_id)
            if cached is not None:
                self._cache.move_to_end(node.node_id)
                return cached
            breaker = self.breaker
            if breaker is not None and not breaker.allow():
                # Open breaker: refuse instantly, skip-degrade the
                # subtree.  Deliberately not in corrupt_pages — the page
                # may be fine; the device is being left alone.
                self.pages_skipped += 1
                self.breaker_skips += 1
                return []
            try:
                raw = self.retry.run(
                    lambda: self._pages.read_page(node.node_id)
                )
                entries = self._decode_node(raw, node)
            except (ChecksumError, PageFileError) as exc:
                if breaker is not None:
                    breaker.record_failure()
                if self.on_corrupt == "skip" and not self._pages.closed:
                    self._record_skip(node.node_id, exc)
                    return []
                raise
            if breaker is not None:
                breaker.record_success()
            if len(self._cache) >= self._cache_capacity:
                self._cache.popitem(last=False)
            self._cache[node.node_id] = entries
            return entries

    def _record_skip(self, page_id: int, exc: Exception) -> None:
        self.pages_skipped += 1
        if page_id not in self.corrupt_pages:
            self.corrupt_pages[page_id] = str(exc)
            warnings.warn(
                f"skipping corrupt page {page_id} in "
                f"{self._pages.path!r}: {exc} — query results may be "
                f"incomplete",
                CorruptionWarning,
                stacklevel=3,
            )

    def close(self) -> None:
        """Close the underlying page file.  Idempotent."""
        self._pages.close()

    def __enter__(self) -> "DiskRTree":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DiskRTree(size={self._size}, height={self.height}, "
            f"nodes={self.node_count}, file={self._pages.path!r})"
        )
