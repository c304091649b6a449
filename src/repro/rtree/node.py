"""R-tree nodes: one node per simulated disk page."""

from __future__ import annotations

from typing import List, Optional

from repro.errors import TreeInvariantError
from repro.geometry.rect import Rect
from repro.rtree.entry import Entry

__all__ = ["Node"]


class Node:
    """A node of the R-tree.

    ``level`` counts from the leaves: leaf nodes have level 0, their parents
    level 1, and so on up to the root.  ``node_id`` is the page identifier
    used for access tracking; it is assigned by the owning tree and stable
    for the node's lifetime.

    ``packed_index`` is this node's index in the owning tree's *cached*
    :class:`~repro.packed.PackedTree` compile while the node's entries are
    unchanged since that compile, ``-1`` otherwise (new or mutated).  Only
    :meth:`RTree.packed() <repro.rtree.tree.RTree.packed>` writes or reads
    a non-negative value; the tree resets it on every node a mutation
    touches.
    """

    __slots__ = ("node_id", "level", "entries", "packed_index")

    def __init__(self, node_id: int, level: int, entries: Optional[List[Entry]] = None) -> None:
        self.node_id = node_id
        self.level = level
        self.entries: List[Entry] = entries if entries is not None else []
        self.packed_index = -1

    @property
    def is_leaf(self) -> bool:
        """True if this node stores leaf entries (actual objects)."""
        return self.level == 0

    def mbr(self) -> Rect:
        """Tight bounding rectangle of all entries in this node."""
        if not self.entries:
            raise TreeInvariantError(
                f"node {self.node_id} has no entries; its MBR is undefined"
            )
        return Rect.union_all([e.rect for e in self.entries])

    def entry_count(self) -> int:
        """Number of entries currently stored."""
        return len(self.entries)

    def children(self) -> List["Node"]:
        """Child nodes (empty list for leaves)."""
        if self.is_leaf:
            return []
        return [e.child for e in self.entries if e.child is not None]

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"internal(level={self.level})"
        return f"Node(id={self.node_id}, {kind}, entries={len(self.entries)})"
