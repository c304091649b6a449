"""The dynamic R-tree: insertion, deletion, window queries.

The implementation follows Guttman's original algorithms (ChooseLeaf,
AdjustTree, CondenseTree) with two optional R*-tree refinements that the
experiment suite ablates: the overlap-aware subtree choice and forced
reinsertion on overflow.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    DimensionMismatchError,
    EmptyIndexError,
    InvalidParameterError,
)
from repro.geometry.rect import Rect
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.splits import SplitStrategy, resolve_split_strategy
from repro.storage.tracker import AccessTracker

__all__ = ["RTree", "TreeSnapshot"]

RectLike = Union[Rect, Sequence[float]]

#: Fraction of a node's entries removed on forced reinsertion (R* uses 30%).
_REINSERT_FRACTION = 0.3


def _coerce_rect(value: RectLike) -> Rect:
    """Accept a Rect, or any coordinate sequence treated as a point."""
    if isinstance(value, Rect):
        return value
    return Rect.from_point(value)


@dataclass(frozen=True)
class TreeSnapshot:
    """A cheap read-only handle on one mutation epoch of a tree.

    Nothing is copied: the snapshot records the tree reference and its
    :attr:`~RTree.epoch` at creation.  ``is_current`` tells whether the
    tree has mutated since — the staleness check the serving layer's
    result cache is built on.  A snapshot never blocks mutation; callers
    needing isolation must synchronize externally (e.g. through
    :class:`repro.service.QueryEngine`, which wraps queries and mutations
    in a read-write lock).

    When requested via ``snapshot(packed=True)`` the handle also carries
    the tree's :class:`~repro.packed.PackedTree` compile of the same
    epoch in :attr:`packed` (``None`` otherwise).  Unlike the handle
    itself the packed form *is* a real copy: it stays valid — and
    internally consistent — even after the source tree mutates.
    """

    tree: Any
    epoch: int
    packed: Optional[Any] = None

    @property
    def is_current(self) -> bool:
        """True while the tree has not mutated since the snapshot."""
        return getattr(self.tree, "epoch", 0) == self.epoch


class RTree:
    """A dynamic, in-memory R-tree with page-accurate node sizing.

    Args:
        max_entries: Fanout *M* — maximum entries per node.
        min_entries: Minimum entries per non-root node *m*; defaults to
            ``max(1, max_entries * 2 // 5)`` (a 40% fill factor).
        split: Split strategy name (``"linear"``, ``"quadratic"``,
            ``"rstar"``) or a :class:`SplitStrategy` instance.
        forced_reinsert: Enable R*-style forced reinsertion on overflow.

    The tree's dimensionality is fixed by the first inserted rectangle.
    """

    def __init__(
        self,
        max_entries: int = 8,
        min_entries: Optional[int] = None,
        split: Union[str, SplitStrategy] = "quadratic",
        forced_reinsert: bool = False,
    ) -> None:
        if max_entries < 2:
            raise InvalidParameterError(
                f"max_entries must be >= 2, got {max_entries}"
            )
        if min_entries is None:
            min_entries = max(1, max_entries * 2 // 5)
        if not 1 <= min_entries <= max_entries // 2:
            raise InvalidParameterError(
                f"min_entries must be in [1, max_entries // 2] = "
                f"[1, {max_entries // 2}], got {min_entries}"
            )
        self.max_entries = max_entries
        self.min_entries = min_entries
        self.split_strategy = resolve_split_strategy(split)
        self.forced_reinsert = forced_reinsert

        self._next_node_id = 0
        self._size = 0
        self._dimension: Optional[int] = None
        self._node_count = 0
        self._epoch = 0
        # Epoch-keyed PackedTree compile, built lazily by packed() while
        # holding the lock: one compile per epoch however many readers
        # ask at once.  Every node's ``packed_index`` refers to this
        # object and nothing else.
        self._packed_cache: Optional[Any] = None
        self._packed_lock = threading.Lock()
        self.root = self._new_node(level=0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def dimension(self) -> Optional[int]:
        """Dimensionality of the indexed space (``None`` while empty)."""
        return self._dimension

    @property
    def height(self) -> int:
        """Number of levels; a tree holding only a root leaf has height 1."""
        return self.root.level + 1

    @property
    def node_count(self) -> int:
        """Number of live nodes (== simulated pages) in the tree."""
        return self._node_count

    @property
    def epoch(self) -> int:
        """Mutation counter: bumped by every insert, delete and clear.

        Cached query results are valid exactly as long as the epoch they
        were computed under; :class:`repro.service.QueryEngine` keys its
        result cache on it.
        """
        return self._epoch

    def snapshot(self, packed: bool = False) -> TreeSnapshot:
        """A :class:`TreeSnapshot` pinned to the current epoch.

        O(1) by default.  With ``packed=True`` the snapshot also carries
        the :class:`~repro.packed.PackedTree` compile of this epoch
        (built lazily and cached — see :meth:`packed`), so the handle
        stays queryable at full speed even after the tree mutates.
        """
        return TreeSnapshot(
            tree=self,
            epoch=self._epoch,
            packed=self.packed() if packed else None,
        )

    def packed(self) -> Any:
        """The :class:`~repro.packed.PackedTree` compile of the current epoch.

        Built lazily on first call and cached; any mutation (insert,
        delete, clear) bumps :attr:`epoch`, and the next call recompiles
        — incrementally: nodes no mutation touched since the cached
        compile are copied out of its slabs, only the touched ones are
        re-walked, and the result is indistinguishable from
        ``PackedTree.from_tree(self)``.  Concurrent callers wait for one
        compile rather than each running their own.  The returned object
        is immutable and safe to query from any thread — including while
        this tree keeps mutating.
        """
        from repro.packed.layout import PackedTree

        with self._packed_lock:
            cached = self._packed_cache
            if cached is not None and cached.epoch == self._epoch:
                return cached
            # The walk re-marks nodes against the compile it is building;
            # if it dies halfway the marks index neither compile, and an
            # empty cache is what makes the next walk ignore them.
            self._packed_cache = None
            compiled = PackedTree._compile(self, cached, True)
            self._packed_cache = compiled
            return compiled

    def bounds(self) -> Rect:
        """MBR of the whole tree; raises :class:`EmptyIndexError` if empty."""
        if self._size == 0:
            raise EmptyIndexError("bounds() on an empty tree")
        return self.root.mbr()

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes, top-down."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children())

    def leaves(self) -> Iterator[Node]:
        """Iterate over all leaf nodes."""
        return (node for node in self.nodes() if node.is_leaf)

    def items(self) -> Iterator[Tuple[Rect, Any]]:
        """Iterate over all indexed ``(rect, payload)`` pairs."""
        for leaf in self.leaves():
            for entry in leaf.entries:
                yield entry.rect, entry.payload

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, rect: RectLike, payload: Any = None) -> None:
        """Insert an object with bounding box *rect* (or a bare point)."""
        mbr = _coerce_rect(rect)
        if self._dimension is None:
            self._dimension = mbr.dimension
        elif mbr.dimension != self._dimension:
            raise DimensionMismatchError(self._dimension, mbr.dimension, "insert")
        self._epoch += 1
        self._insert_at_level(Entry(mbr, payload=payload), level=0, count_item=True)

    def _insert_at_level(self, entry: Entry, level: int, count_item: bool) -> None:
        # Forced-reinsert bookkeeping: at most one reinsertion per level per
        # top-level insertion (the R* rule), tracked in this set.
        reinserted_levels: set = set()
        pending: List[Tuple[Entry, int]] = [(entry, level)]
        first = True
        while pending:
            item, target_level = pending.pop()
            overflow = self._descend_insert(
                self.root, item, target_level, reinserted_levels, pending
            )
            if overflow is not None:
                self._grow_root(overflow)
            if first and count_item:
                self._size += 1
                first = False

    def _descend_insert(
        self,
        node: Node,
        entry: Entry,
        target_level: int,
        reinserted_levels: set,
        pending: List[Tuple[Entry, int]],
    ) -> Optional[Node]:
        """Recursive insert; returns a split-off sibling of *node*, if any."""
        node.packed_index = -1
        if node.level == target_level:
            node.entries.append(entry)
        else:
            child_entry = self._choose_subtree(node, entry.rect)
            split_child = self._descend_insert(
                child_entry.child, entry, target_level, reinserted_levels, pending
            )
            child_entry.rect = child_entry.child.mbr()
            if split_child is not None:
                node.entries.append(Entry(split_child.mbr(), child=split_child))

        if len(node.entries) <= self.max_entries:
            return None
        return self._handle_overflow(node, reinserted_levels, pending)

    def _choose_subtree(self, node: Node, rect: Rect) -> Entry:
        """Pick the child entry to descend into for *rect*.

        Guttman: least area enlargement, ties by least area.  With the R*
        split strategy, nodes directly above the leaves instead minimize
        *overlap* enlargement (the R*-tree ChooseSubtree refinement).
        """
        entries = node.entries
        use_overlap = (
            self.split_strategy.name == "rstar" and node.level == 1
        )
        if use_overlap:
            best = None
            best_key = None
            for candidate in entries:
                enlarged = candidate.rect.union(rect)
                overlap_delta = 0.0
                for other in entries:
                    if other is candidate:
                        continue
                    overlap_delta += enlarged.overlap_area(other.rect)
                    overlap_delta -= candidate.rect.overlap_area(other.rect)
                key = (
                    overlap_delta,
                    candidate.rect.enlargement(rect),
                    candidate.rect.area(),
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best = candidate
            assert best is not None
            return best
        best = None
        best_key = None
        for candidate in entries:
            key = (candidate.rect.enlargement(rect), candidate.rect.area())
            if best_key is None or key < best_key:
                best_key = key
                best = candidate
        assert best is not None
        return best

    def _handle_overflow(
        self,
        node: Node,
        reinserted_levels: set,
        pending: List[Tuple[Entry, int]],
    ) -> Optional[Node]:
        """Either schedule forced reinsertion or split the node."""
        can_reinsert = (
            self.forced_reinsert
            and node is not self.root
            and node.level not in reinserted_levels
        )
        if can_reinsert:
            reinserted_levels.add(node.level)
            removed = self._pick_reinsert_entries(node)
            for removed_entry in removed:
                pending.append((removed_entry, node.level))
            return None
        group_a, group_b = self.split_strategy.split(node.entries, self.min_entries)
        node.entries = group_a
        sibling = self._new_node(level=node.level)
        sibling.entries = group_b
        return sibling

    def _pick_reinsert_entries(self, node: Node) -> List[Entry]:
        """Remove and return the entries farthest from the node's center."""
        count = max(1, int(len(node.entries) * _REINSERT_FRACTION))
        center = node.mbr().center
        ranked = sorted(
            node.entries,
            key=lambda e: sum(
                (a - b) ** 2 for a, b in zip(e.rect.center, center)
            ),
            reverse=True,
        )
        removed = ranked[:count]
        removed_ids = {id(e) for e in removed}
        node.entries = [e for e in node.entries if id(e) not in removed_ids]
        return removed

    def _grow_root(self, sibling: Node) -> None:
        old_root = self.root
        new_root = self._new_node(level=old_root.level + 1)
        new_root.entries = [
            Entry(old_root.mbr(), child=old_root),
            Entry(sibling.mbr(), child=sibling),
        ]
        self.root = new_root

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, rect: RectLike, payload: Any = None) -> bool:
        """Remove one entry matching (*rect*, *payload*) exactly.

        Returns ``True`` if an entry was found and removed.
        """
        mbr = _coerce_rect(rect)
        path = self._find_leaf(self.root, mbr, payload)
        if path is None:
            return False
        leaf = path[-1]
        for i, entry in enumerate(leaf.entries):
            if entry.rect == mbr and entry.payload == payload:
                del leaf.entries[i]
                break
        self._size -= 1
        self._epoch += 1
        self._condense(path)
        return True

    def _find_leaf(
        self, node: Node, rect: Rect, payload: Any
    ) -> Optional[List[Node]]:
        if node.is_leaf:
            for entry in node.entries:
                if entry.rect == rect and entry.payload == payload:
                    return [node]
            return None
        for entry in node.entries:
            if entry.rect.contains_rect(rect):
                sub_path = self._find_leaf(entry.child, rect, payload)
                if sub_path is not None:
                    return [node] + sub_path
        return None

    def _condense(self, path: List[Node]) -> None:
        """Guttman's CondenseTree: dissolve underfull nodes, reinsert orphans."""
        orphans: List[Tuple[Entry, int]] = []
        for node in path:
            node.packed_index = -1
        # Walk from the leaf upward; path[0] is the root.
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            parent_entry = next(e for e in parent.entries if e.child is node)
            if len(node.entries) < self.min_entries:
                parent.entries.remove(parent_entry)
                self._release_node(node)
                for entry in node.entries:
                    orphans.append((entry, node.level))
            elif node.entries:
                parent_entry.rect = node.mbr()

        for entry, level in orphans:
            self._insert_at_level(entry, level, count_item=False)

        # Shrink the root: an internal root with a single child is redundant.
        while not self.root.is_leaf and len(self.root.entries) == 1:
            old_root = self.root
            self.root = old_root.entries[0].child
            self._release_node(old_root)
        if self._size == 0 and not self.root.is_leaf:
            self._release_node(self.root)
            self.root = self._new_node(level=0)
        if self._size == 0:
            self.root.entries = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search(
        self,
        rect: RectLike,
        tracker: Optional[AccessTracker] = None,
    ) -> List[Tuple[Rect, Any]]:
        """Window query: all ``(rect, payload)`` pairs intersecting *rect*."""
        query = _coerce_rect(rect)
        results: List[Tuple[Rect, Any]] = []
        self._search_node(self.root, query, results, tracker)
        return results

    def _search_node(
        self,
        node: Node,
        query: Rect,
        results: List[Tuple[Rect, Any]],
        tracker: Optional[AccessTracker],
    ) -> None:
        if tracker is not None:
            tracker.access(node.node_id, node.is_leaf)
        if node.is_leaf:
            for entry in node.entries:
                if entry.rect.intersects(query):
                    results.append((entry.rect, entry.payload))
            return
        for entry in node.entries:
            if entry.rect.intersects(query):
                self._search_node(entry.child, query, results, tracker)

    def count_in(self, rect: RectLike) -> int:
        """Number of indexed objects whose MBR intersects *rect*."""
        return len(self.search(rect))

    def clear(self) -> None:
        """Remove all contents; dimensionality stays fixed once set."""
        self._size = 0
        self._node_count = 0
        self._next_node_id = 0
        self._epoch += 1
        self.root = self._new_node(level=0)

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def _new_node(self, level: int) -> Node:
        node = Node(node_id=self._next_node_id, level=level)
        self._next_node_id += 1
        self._node_count += 1
        return node

    def _release_node(self, node: Node) -> None:
        self._node_count -= 1

    def __repr__(self) -> str:
        return (
            f"RTree(size={self._size}, height={self.height}, "
            f"nodes={self._node_count}, M={self.max_entries}, "
            f"m={self.min_entries}, split={self.split_strategy.name!r})"
        )
