"""Shared-memory export/attach of :class:`~repro.packed.PackedTree` slabs.

A :class:`PackedTree` is already five flat buffers plus two object lists
(payloads, rects).  This module moves the buffers into one
``multiprocessing.shared_memory`` segment per shard so worker processes
attach them **zero-copy**: the attached tree's ``kinds``/``starts``/
``page_ids``/``coords``/``refs`` are typed :class:`memoryview`\\ s over
the segment, and the 2-D component mirrors (``xlo`` etc.) become strided
views of the same bytes — no per-worker duplication of the index, and a
snapshot swap is a single segment-name publish.

The two object lists cannot be shared as raw bytes:

- **payloads** are pickled once into the tail of the segment and
  un-pickled at attach (a one-time cost per publish, not per query);
- **rects** are reconstructed *lazily* (:class:`LazyRects`): the kernels
  touch ``rects[ref]`` only for the k returned neighbors, so the worker
  rebuilds just those rectangles from the coordinate slab instead of
  shipping ``n`` Rect objects across the process boundary.

Lifecycle contract (see docs/SHARDING.md for the full state machine):
the parent creates segments (:func:`export_slab`) and is the *only*
unlinker; workers attach (:func:`attach_slab`) with
``untrack=True`` so Python's ``resource_tracker`` does not double-count
the segment and spuriously "clean it up" when a worker exits.  Every
attached view must be released before the mapping can close —
:meth:`AttachedSlab.close` does that bookkeeping.
"""

from __future__ import annotations

import pickle
from array import array
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import InvalidParameterError
from repro.geometry.rect import Rect, _from_bounds
from repro.packed.layout import NODE_INTERNAL, PackedTree

__all__ = [
    "SlabManifest",
    "ExportedSlab",
    "AttachedSlab",
    "LazyRects",
    "export_slab",
    "attach_slab",
]

#: Segment layout order: 8-byte-aligned numeric slabs first, then the
#: byte-wide kinds slab, then the pickled payload blob.
_ALIGN = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class SlabManifest:
    """Everything a worker needs to attach one shard's slabs.

    Plain picklable data — this is the *entire* payload of a snapshot
    publish.  Offsets and lengths describe the segment layout;
    ``mbr_lo``/``mbr_hi`` carry the shard MBR (the pruning surface) so
    the parent never has to be consulted about geometry.
    """

    name: str
    shard_index: int
    dimension: int
    size: int
    epoch: int
    pages_skipped_corrupt: int
    node_count: int
    entry_count: int
    coords_off: int
    starts_off: int
    page_ids_off: int
    refs_off: int
    kinds_off: int
    payload_off: int
    payload_len: int
    total_bytes: int
    mbr_lo: Tuple[float, ...]
    mbr_hi: Tuple[float, ...]

    def mbr(self) -> Optional[Rect]:
        """The shard MBR as a :class:`Rect` (``None`` for an empty shard)."""
        if not self.mbr_lo:
            return None
        return _from_bounds(Rect, tuple(self.mbr_lo), tuple(self.mbr_hi))


class LazyRects:
    """Leaf ``Rect`` objects reconstructed on demand from the slab.

    Supports exactly what the packed kernels and ``PackedTree``
    introspection use: ``rects[ref]``, ``len``, and iteration.  The
    payload-index → entry-index table is built on first access (one
    linear pass over the entries), after which each lookup rebuilds one
    rectangle from ``coords`` — only the k *returned* neighbors per
    query ever pay it.
    """

    __slots__ = ("_ptree", "_inverse")

    def __init__(self) -> None:
        self._ptree: Optional[PackedTree] = None
        self._inverse: Optional[List[int]] = None

    def bind(self, ptree: PackedTree) -> None:
        self._ptree = ptree

    def _table(self) -> List[int]:
        inverse = self._inverse
        if inverse is None:
            ptree = self._ptree
            assert ptree is not None, "LazyRects used before bind()"
            inverse = [-1] * len(ptree.payloads)
            kinds = ptree.kinds
            starts = ptree.starts
            refs = ptree.refs
            for ni in range(len(kinds)):
                if kinds[ni] == NODE_INTERNAL:
                    continue
                for i in range(starts[ni], starts[ni + 1]):
                    inverse[refs[i]] = i
            self._inverse = inverse
        return inverse

    def __len__(self) -> int:
        return len(self._ptree.payloads) if self._ptree is not None else 0

    def __getitem__(self, ref: int) -> Rect:
        return self._ptree.entry_rect(self._table()[ref])

    def __iter__(self) -> Iterator[Rect]:
        for ref in range(len(self)):
            yield self[ref]


@dataclass
class ExportedSlab:
    """Parent-side handle on one exported segment.

    The parent keeps this for the lifetime of the publish and calls
    :meth:`unlink` exactly once, after every worker has detached (or
    died — the OS keeps the mapping alive for attached processes, so
    unlink order is safe either way).
    """

    manifest: SlabManifest
    _shm: Optional[shared_memory.SharedMemory]

    @property
    def name(self) -> str:
        return self.manifest.name

    def close(self) -> None:
        """Drop the parent's mapping (idempotent)."""
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def unlink(self) -> None:
        """Remove the segment name; also closes the mapping (idempotent)."""
        shm = self._shm
        self.close()
        if shm is not None:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class AttachedSlab:
    """Worker-side zero-copy view: a queryable :class:`PackedTree`.

    ``ptree`` is a real ``PackedTree`` whose slabs are memoryviews over
    the shared segment — the packed kernels run on it unchanged.
    :meth:`close` releases every exported view (including the 2-D
    mirrors the tree built internally) before closing the mapping;
    skipping that ordering raises ``BufferError`` from the mmap.
    """

    def __init__(
        self,
        manifest: SlabManifest,
        shm: shared_memory.SharedMemory,
        ptree: PackedTree,
    ) -> None:
        self.manifest = manifest
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.ptree: Optional[PackedTree] = ptree

    def close(self) -> None:
        """Release all views and detach from the segment (idempotent)."""
        ptree = self.ptree
        self.ptree = None
        if ptree is not None:
            # The batched kernel may have cached numpy views over the
            # segment (PackedTree._np_coords); drop them first so their
            # buffer exports are released before the memoryviews and
            # the mmap close below.
            ptree._np_coords = None
            views = [
                ptree.kinds, ptree.starts, ptree.page_ids,
                ptree.coords, ptree.refs,
                ptree.xlo, ptree.ylo, ptree.xhi, ptree.yhi,
            ]
            for view in views:
                if isinstance(view, memoryview):
                    view.release()
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def __enter__(self) -> "AttachedSlab":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def export_slab(
    ptree: PackedTree,
    shard_index: int,
    mbr: Optional[Rect],
    name: str,
) -> ExportedSlab:
    """Copy *ptree*'s slabs into a fresh shared-memory segment.

    One copy per publish; afterwards any number of workers attach the
    same bytes.  *name* must be unique system-wide (the engine derives
    it from pid + a random token + epoch + shard index).
    """
    payload_blob = pickle.dumps(
        list(ptree.payloads), protocol=pickle.HIGHEST_PROTOCOL
    )
    coords_b = _tobytes(ptree.coords)
    starts_b = _tobytes(ptree.starts)
    page_ids_b = _tobytes(ptree.page_ids)
    refs_b = _tobytes(ptree.refs)
    kinds_b = _tobytes(ptree.kinds)

    coords_off = 0
    starts_off = _aligned(coords_off + len(coords_b))
    page_ids_off = _aligned(starts_off + len(starts_b))
    refs_off = _aligned(page_ids_off + len(page_ids_b))
    kinds_off = _aligned(refs_off + len(refs_b))
    payload_off = _aligned(kinds_off + len(kinds_b))
    total = max(1, payload_off + len(payload_blob))

    shm = shared_memory.SharedMemory(name=name, create=True, size=total)
    buf = shm.buf
    buf[coords_off:coords_off + len(coords_b)] = coords_b
    buf[starts_off:starts_off + len(starts_b)] = starts_b
    buf[page_ids_off:page_ids_off + len(page_ids_b)] = page_ids_b
    buf[refs_off:refs_off + len(refs_b)] = refs_b
    buf[kinds_off:kinds_off + len(kinds_b)] = kinds_b
    buf[payload_off:payload_off + len(payload_blob)] = payload_blob

    manifest = SlabManifest(
        name=shm.name,
        shard_index=shard_index,
        dimension=ptree.dimension,
        size=ptree.size,
        epoch=ptree.epoch,
        pages_skipped_corrupt=ptree.pages_skipped_corrupt,
        node_count=len(ptree.kinds),
        entry_count=len(ptree.refs),
        coords_off=coords_off,
        starts_off=starts_off,
        page_ids_off=page_ids_off,
        refs_off=refs_off,
        kinds_off=kinds_off,
        payload_off=payload_off,
        payload_len=len(payload_blob),
        total_bytes=total,
        mbr_lo=tuple(mbr.lo) if mbr is not None else (),
        mbr_hi=tuple(mbr.hi) if mbr is not None else (),
    )
    return ExportedSlab(manifest=manifest, _shm=shm)


def attach_slab(manifest: SlabManifest, untrack: bool = False) -> AttachedSlab:
    """Attach a published segment as a queryable :class:`PackedTree`.

    With ``untrack=True`` (what worker processes pass) the segment is
    *not* registered with this process's ``resource_tracker``: the
    parent owns cleanup, and a worker-side registration would let the
    worker's tracker unlink a segment other processes still use.  On
    Python 3.13+ this maps to ``SharedMemory(track=False)``; on 3.9–3.12
    attaching never registers in the first place, so there is nothing to
    suppress.
    """
    if untrack:
        try:
            shm = shared_memory.SharedMemory(name=manifest.name, track=False)
        except TypeError:  # Python < 3.13: attach does not register
            shm = shared_memory.SharedMemory(name=manifest.name)
    else:
        shm = shared_memory.SharedMemory(name=manifest.name)
    if shm.size < manifest.total_bytes:
        shm.close()
        raise InvalidParameterError(
            f"segment {manifest.name!r} is {shm.size}B, manifest "
            f"says {manifest.total_bytes}B"
        )
    buf = shm.buf
    ec = manifest.entry_count
    nc = manifest.node_count
    dim = manifest.dimension
    coords = _view(buf, manifest.coords_off, "d", 2 * dim * ec)
    starts = _view(buf, manifest.starts_off, "l", nc + 1)
    page_ids = _view(buf, manifest.page_ids_off, "l", nc)
    refs = _view(buf, manifest.refs_off, "l", ec)
    kinds = _view(buf, manifest.kinds_off, "b", nc)
    blob = bytes(
        buf[manifest.payload_off:manifest.payload_off + manifest.payload_len]
    )
    payloads = pickle.loads(blob)
    rects = LazyRects()
    ptree = PackedTree(
        dimension=dim,
        size=manifest.size,
        epoch=manifest.epoch,
        kinds=kinds,
        starts=starts,
        page_ids=page_ids,
        coords=coords,
        refs=refs,
        payloads=payloads,
        rects=rects,
        pages_skipped_corrupt=manifest.pages_skipped_corrupt,
    )
    rects.bind(ptree)
    return AttachedSlab(manifest=manifest, shm=shm, ptree=ptree)


def _tobytes(slab: Any) -> bytes:
    """Raw bytes of an ``array`` or ``memoryview`` slab."""
    return slab.tobytes()


def _view(buf: memoryview, offset: int, typecode: str, count: int) -> memoryview:
    itemsize = array(typecode).itemsize
    raw = buf[offset:offset + count * itemsize]
    return raw.cast(typecode)
