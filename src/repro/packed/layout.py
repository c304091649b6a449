"""PackedTree: a read-only struct-of-arrays snapshot of an R-tree.

The object-graph tree (``Node`` -> ``Entry`` -> ``Rect`` -> coordinate
tuples) is ideal for mutation but hostile to the query hot path: every
visited entry costs attribute loads, a metric *function call*, a ``zip``
tuple stream and several short-lived allocations.  :class:`PackedTree`
compiles the whole tree into four flat slabs that the specialized kernels
in :mod:`repro.packed.kernels` walk with nothing but integer offsets:

```
nodes   (indexed by node id 0..N-1; node 0 is the root)
  kinds   array('b')  NODE_INTERNAL | NODE_LEAF_RECT | NODE_LEAF_POINTS
  starts  array('l')  N+1 entries; node i owns entries starts[i]:starts[i+1]
  page_ids array('l') original node_id, reported to AccessTrackers

entries (indexed by global entry index; contiguous per node)
  coords  array('d')  2*dim doubles per entry: lo[0..d-1], hi[0..d-1]
  refs    array('l')  internal entry -> child node index
                      leaf entry     -> index into payloads
payloads  list        leaf payload objects, in entry order
rects     list        leaf Rect objects, parallel to payloads
```

For 2-D trees (the overwhelmingly common case) four *component mirrors*
``xlo``/``ylo``/``xhi``/``yhi`` are also materialized — one contiguous
``array('d')`` per coordinate component, entry-indexed.  The 2-D kernels
slice these instead of striding through ``coords``, which turns every
per-node slab read into a straight memcpy.  ``rects`` keeps the source
tree's leaf ``Rect`` objects alive so returned neighbors carry the *same*
rectangle objects the object kernels would return, with no per-result
reconstruction.

``NODE_LEAF_POINTS`` marks a leaf whose entries are all degenerate
rectangles (``lo == hi`` on every axis — point data, the common case);
the kernels then read only the ``lo`` half of each entry's slab and skip
the per-axis clamp branches entirely.

A :class:`PackedTree` is immutable and safe to share across threads: the
kernels allocate per-query scratch only.  It is a *snapshot* — compile it
from a tree at one mutation epoch (recorded in :attr:`epoch`) and rebuild
when the epoch moves on; :meth:`repro.rtree.tree.RTree.packed` does that
caching for you, and :class:`repro.service.QueryEngine` with
``packed=True`` drives it under its read-write lock.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import chain
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.geometry.rect import Rect, _from_bounds

__all__ = [
    "PackedTree",
    "NODE_INTERNAL",
    "NODE_LEAF_RECT",
    "NODE_LEAF_POINTS",
]

#: Node kind codes stored in :attr:`PackedTree.kinds`.
NODE_INTERNAL = 0
NODE_LEAF_RECT = 1
NODE_LEAF_POINTS = 2


class PackedTree:
    """Flat, read-only struct-of-arrays form of one R-tree epoch.

    Build with :meth:`from_tree`; query with the kernels in
    :mod:`repro.packed.kernels` (or through
    :class:`~repro.service.QueryEngine` / ``nearest_batch`` with
    ``packed=True``).
    """

    __slots__ = (
        "dimension",
        "size",
        "epoch",
        "kinds",
        "starts",
        "page_ids",
        "coords",
        "refs",
        "payloads",
        "rects",
        "xlo",
        "ylo",
        "xhi",
        "yhi",
        "pages_skipped_corrupt",
        "_np_coords",
    )

    def __init__(
        self,
        dimension: int,
        size: int,
        epoch: int,
        kinds: array,
        starts: array,
        page_ids: array,
        coords: array,
        refs: array,
        payloads: List[Any],
        rects: List[Any],
        pages_skipped_corrupt: int = 0,
    ) -> None:
        self.dimension = dimension
        self.size = size
        self.epoch = epoch
        # Corrupt pages the source tree skipped while this snapshot was
        # compiled (on_corrupt="skip").  Nonzero means whole subtrees are
        # missing from the slabs, so *every* query on the snapshot is
        # degraded; the kernels surface this in SearchStats to mirror the
        # object kernels' per-query skip accounting.
        self.pages_skipped_corrupt = pages_skipped_corrupt
        self.kinds = kinds
        self.starts = starts
        self.page_ids = page_ids
        self.coords = coords
        self.refs = refs
        self.payloads = payloads
        self.rects = rects
        if dimension == 2:
            # Contiguous per-component mirrors for the 2-D fast kernels.
            self.xlo = coords[0::4]
            self.ylo = coords[1::4]
            self.xhi = coords[2::4]
            self.yhi = coords[3::4]
        else:
            self.xlo = self.ylo = self.xhi = self.yhi = None
        # Lazy zero-copy numpy view of ``coords`` for the batched kernel
        # (:mod:`repro.packed.batch`); stays None until (and unless) a
        # vectorized batch query touches this snapshot.
        self._np_coords = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tree(cls, tree: Any) -> "PackedTree":
        """Compile *tree* (an ``RTree`` or ``DiskRTree``) into slabs.

        The compile is a single breadth-first walk; for a ``DiskRTree`` it
        reads every page once (through the tree's page cache), after which
        queries on the snapshot touch no storage at all.  Entry order
        within each node is preserved, so the kernels reproduce the
        object kernels' traversal — and therefore their results and
        statistics — exactly.

        Always a from-scratch compile that leaves the tree untouched; the
        cached, incremental door is :meth:`RTree.packed()
        <repro.rtree.tree.RTree.packed>`.
        """
        return cls._compile(tree, None, False)

    @classmethod
    def _compile(
        cls, tree: Any, previous: Optional["PackedTree"], mark: bool
    ) -> "PackedTree":
        """The one compile loop, behind :meth:`from_tree` and ``RTree.packed()``.

        *previous* is the tree's cached compile (or ``None``): a node whose
        ``packed_index`` is non-negative has not changed since *previous*
        was compiled, so its run is copied out of the old slabs by slice
        instead of re-walked entry by entry.  Only the node's own run can
        be copied — its position, its child indices and its payload
        offsets all shift when anything before it in the walk grows — so
        the result is slab-for-slab what a from-scratch compile returns.
        With *mark* the walk records each node's index in the *new*
        compile on the node, which binds the marks to the returned object:
        the caller must cache it (or drop the cache if the walk raises).
        """
        dimension = tree.dimension
        size = len(tree)
        epoch = getattr(tree, "epoch", 0)
        kinds = array("b")
        starts = array("l", [0])
        page_ids = array("l")
        coords = array("d")
        refs = array("l")
        payloads: List[Any] = []
        rects: List[Any] = []
        if size == 0:
            return cls(
                dimension=dimension if dimension is not None else 0,
                size=0,
                epoch=epoch,
                kinds=kinds,
                starts=starts,
                page_ids=page_ids,
                coords=coords,
                refs=refs,
                payloads=payloads,
                rects=rects,
            )
        if dimension is None:  # pragma: no cover - size>0 implies a dimension
            raise InvalidParameterError(
                "cannot pack a tree with no dimension"
            )

        # Single breadth-first pass: each node's entries are read exactly
        # once (one page read per node on a DiskRTree), and children are
        # numbered in entry order.  The latter is load-bearing: within an
        # internal node the refs ascend in entry order, so the fast DFS
        # kernel's plain tuple sort of (mindist, ref) pairs breaks
        # distance ties exactly like the object kernel's stable sort.
        skipped_before = getattr(tree, "pages_skipped", 0)
        extend_coords = coords.extend
        flatten = chain.from_iterable
        reuse = previous is not None
        if reuse:
            old_kinds = previous.kinds
            old_starts = previous.starts
            old_coords = previous.coords
            old_refs = previous.refs
            old_payloads = previous.payloads
            old_rects = previous.rects
            width = 2 * dimension
        queue = deque((tree.root,))
        next_index = 1
        while queue:
            node = queue.popleft()
            entries = node.entries
            page_ids.append(node.node_id)
            if reuse and node.packed_index >= 0:
                # Unchanged since *previous*: copy the run.  Leaf refs and
                # BFS child indices are consecutive by construction, so
                # both are re-derived as a range at the new offsets.
                old = node.packed_index
                begin = old_starts[old]
                count = old_starts[old + 1] - begin
                extend_coords(old_coords[width * begin:width * (begin + count)])
                kind = old_kinds[old]
                if kind == NODE_INTERNAL:
                    refs.extend(range(next_index, next_index + count))
                    next_index += count
                    queue.extend([entry.child for entry in entries])
                else:
                    first = old_refs[begin]
                    refs.extend(range(len(payloads), len(payloads) + count))
                    payloads.extend(old_payloads[first:first + count])
                    rects.extend(old_rects[first:first + count])
                kinds.append(kind)
            elif node.is_leaf:
                # Read the leaf's entries once, then emit per slab, not per entry.
                leaf = list(entries)
                leaf_rects = [entry.rect for entry in leaf]
                los = [rect.lo for rect in leaf_rects]
                his = [rect.hi for rect in leaf_rects]
                coords.fromlist(list(flatten(flatten(zip(los, his)))))
                refs.extend(range(len(payloads), len(payloads) + len(leaf)))
                payloads.extend([entry.payload for entry in leaf])
                rects.extend(leaf_rects)
                kinds.append(
                    NODE_LEAF_POINTS if los == his else NODE_LEAF_RECT
                )
            else:
                kinds.append(NODE_INTERNAL)
                for entry in entries:
                    rect = entry.rect
                    extend_coords(rect.lo)
                    extend_coords(rect.hi)
                    refs.append(next_index)
                    next_index += 1
                    queue.append(entry.child)
            if mark:
                node.packed_index = len(kinds) - 1
            starts.append(starts[-1] + len(entries))
        return cls(
            dimension=dimension,
            size=size,
            epoch=epoch,
            kinds=kinds,
            starts=starts,
            page_ids=page_ids,
            coords=coords,
            refs=refs,
            payloads=payloads,
            rects=rects,
            pages_skipped_corrupt=(
                getattr(tree, "pages_skipped", 0) - skipped_before
            ),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    @property
    def node_count(self) -> int:
        """Number of packed nodes."""
        return len(self.kinds)

    @property
    def entry_count(self) -> int:
        """Number of packed entries across all nodes."""
        return len(self.refs)

    def nbytes(self) -> int:
        """Slab memory in bytes (excluding the payload/rect object lists)."""
        total = (
            self.kinds.itemsize * len(self.kinds)
            + self.starts.itemsize * len(self.starts)
            + self.page_ids.itemsize * len(self.page_ids)
            + self.coords.itemsize * len(self.coords)
            + self.refs.itemsize * len(self.refs)
        )
        if self.xlo is not None:
            total += 4 * self.xlo.itemsize * len(self.xlo)
        return total

    def entry_rect(self, entry_index: int) -> Rect:
        """Reconstruct the :class:`Rect` of one entry from the slab.

        Used by the kernels only for the k *returned* neighbors — never
        on the per-entry hot path.  Bypasses ``Rect.__init__`` validation:
        slab coordinates came out of validated rects.
        """
        dim = self.dimension
        base = entry_index * 2 * dim
        lo = tuple(self.coords[base:base + dim])
        hi = tuple(self.coords[base + dim:base + 2 * dim])
        return _from_bounds(Rect, lo, hi)

    def items(self) -> List[Tuple[Rect, Any]]:
        """Every indexed ``(rect, payload)`` pair, in packed entry order."""
        out: List[Tuple[Rect, Any]] = []
        starts = self.starts
        for ni in range(self.node_count):
            if self.kinds[ni] == NODE_INTERNAL:
                continue
            for i in range(starts[ni], starts[ni + 1]):
                out.append((self.entry_rect(i), self.payloads[self.refs[i]]))
        return out

    def validate_against(self, tree: Any) -> None:
        """Cheap structural cross-check against the source tree.

        Raises :class:`InvalidParameterError` on size or dimension drift;
        intended for tests and the audit, not the hot path.
        """
        if len(tree) != self.size:
            raise InvalidParameterError(
                f"packed size {self.size} != tree size {len(tree)}"
            )
        if tree.dimension not in (None, self.dimension):
            raise InvalidParameterError(
                f"packed dimension {self.dimension} != tree "
                f"dimension {tree.dimension}"
            )

    def __repr__(self) -> str:
        return (
            f"PackedTree(size={self.size}, nodes={self.node_count}, "
            f"entries={self.entry_count}, dim={self.dimension}, "
            f"epoch={self.epoch}, slabs={self.nbytes()}B)"
        )
