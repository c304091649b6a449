"""Sort-Tile-Recursive (STR) bulk loading (Leutenegger et al., ICDE 1997).

Bulk loading builds a packed, near-100%-full R-tree in one pass — the best
case for the NN search's page counts, and the configuration the experiment
suite uses for its largest datasets (building 128k points by repeated
insertion is slow in pure Python; STR is linearithmic).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro._gcpause import _gc_paused
from repro.errors import InvalidParameterError
from repro.geometry.point import axis_columns
from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.tree import RTree, RectLike, _coerce_rect

__all__ = ["bulk_load"]


_PACK_METHODS = ("str", "hilbert", "morton")


@_gc_paused()
def bulk_load(
    items: Iterable[Tuple[RectLike, Any]],
    max_entries: int = 8,
    min_entries: Optional[int] = None,
    fill_factor: float = 1.0,
    method: str = "str",
) -> RTree:
    """Build an R-tree from ``(rect_or_point, payload)`` pairs in one pass.

    Args:
        items: The objects to index.
        max_entries: Node fanout *M* of the resulting tree.
        min_entries: Minimum fill *m* (affects later dynamic updates only).
        fill_factor: Fraction of *M* each packed node is filled to; 1.0
            reproduces classic STR, lower values leave slack for updates.
            Clamped from below so packed nodes never drop under ``2 * m``
            entries (keeping every structural invariant intact).
        method: ``"str"`` (Sort-Tile-Recursive, any dimension),
            ``"hilbert"`` (Hilbert-packed R-tree, 2-D only — orders
            entries along the Hilbert curve of their centers), or
            ``"morton"`` (Z-order packing, any dimension).

    Returns:
        A fully packed :class:`RTree` that behaves exactly like one built by
        repeated insertion (updates, deletes and queries all work on it).
    """
    if not 0.0 < fill_factor <= 1.0:
        raise InvalidParameterError(
            f"fill_factor must be in (0, 1], got {fill_factor}"
        )
    if method not in _PACK_METHODS:
        raise InvalidParameterError(
            f"method must be one of {_PACK_METHODS}, got {method!r}"
        )
    tree = RTree(max_entries=max_entries, min_entries=min_entries)
    entries = [
        Entry(_coerce_rect(rect), None, payload) for rect, payload in items
    ]
    if not entries:
        return tree

    dimension = entries[0].rect.dimension
    # Keep packed nodes mergeable: per_node >= 2 * m guarantees the tail
    # rebalancing below can always top up the final group to >= m entries.
    per_node = max(2, int(max_entries * fill_factor), 2 * tree.min_entries)
    per_node = min(per_node, max_entries)

    tree._dimension = dimension
    tree._size = len(entries)

    if method == "hilbert":
        entries = _hilbert_order(entries, dimension)
    elif method == "morton":
        entries = _morton_order(entries, dimension)

    level = 0
    while len(entries) > max_entries:
        if method in ("hilbert", "morton"):
            # Entries are already curve-ordered (and parents inherit that
            # order), so each level is packed by sequential chunking.
            groups = [
                entries[i : i + per_node]
                for i in range(0, len(entries), per_node)
            ]
            _rebalance_tail(groups, tree.min_entries)
            nodes = []
            for group in groups:
                node = tree._new_node(level=level)
                node.entries = group
                nodes.append(node)
        else:
            nodes = _pack_level(entries, per_node, level, tree)
        entries = [Entry(node.mbr(), child=node) for node in nodes]
        level += 1

    root = tree._new_node(level=level)
    root.entries = entries
    # Replace the empty leaf root created by the RTree constructor.
    tree._release_node(tree.root)
    tree.root = root
    return tree


def _morton_order(entries: List[Entry], dimension: int) -> List[Entry]:
    """Sort entries by the Morton key of their rectangle centers."""
    from repro.geometry.rect import Rect
    from repro.geometry.zorder import morton_key_for_point

    bounds = Rect.union_all(e.rect for e in entries)
    lo, hi = bounds.lo, bounds.hi
    return sorted(
        entries, key=lambda e: morton_key_for_point(e.rect.center, lo, hi)
    )


def _hilbert_order(entries: List[Entry], dimension: int) -> List[Entry]:
    """Sort entries by the Hilbert key of their rectangle centers."""
    from repro.geometry.hilbert import hilbert_key_for_point
    from repro.geometry.rect import Rect

    if dimension != 2:
        raise InvalidParameterError(
            "hilbert bulk loading supports 2-D data only; use method='str'"
        )
    bounds = Rect.union_all(e.rect for e in entries)
    lo, hi = bounds.lo, bounds.hi
    return sorted(
        entries, key=lambda e: hilbert_key_for_point(e.rect.center, lo, hi)
    )


def _pack_level(
    entries: List[Entry], per_node: int, level: int, tree: RTree
) -> List[Node]:
    """Tile one level's entries into nodes of ``[m, per_node]`` entries."""
    # One key column per axis, computed once; the tiling permutes entry
    # *indices* with a C-level sort key.
    columns = axis_columns([e.rect.center for e in entries])
    tiles = _str_partition(range(len(entries)), columns, per_node, axis=0)
    groups = [[entries[i] for i in tile] for tile in tiles]
    _rebalance_tail(groups, tree.min_entries)
    nodes = []
    for group in groups:
        node = tree._new_node(level=level)
        node.entries = group
        nodes.append(node)
    return nodes


def _rebalance_tail(groups: List[List[Entry]], min_entries: int) -> None:
    """Top up an underfull final group by borrowing from its predecessor.

    The slab arithmetic in :func:`_str_partition` fills every group to
    exactly ``per_node`` except possibly the last one, so at most one group
    can be underfull — always the final one.
    """
    if len(groups) < 2:
        return
    last = groups[-1]
    prev = groups[-2]
    while len(last) < min_entries and len(prev) > min_entries:
        last.insert(0, prev.pop())


def _str_partition(
    indices: Sequence[int], columns: Sequence[Sequence[float]], per_node: int, axis: int
) -> List[List[int]]:
    """Recursive STR tiling: sort along *axis*, cut into slabs, recurse.

    Tiles entry *indices*; ``columns[axis][i]`` is entry ``i``'s center
    along *axis*.  Stable sort, same keys: the permutation is the one
    sorting the entries themselves by ``rect.center[axis]`` gives.

    Every slab except the last holds a whole multiple of ``per_node``
    entries, so underfull groups can only appear at the very end of the
    returned list.
    """
    if len(indices) <= per_node:
        return [list(indices)]
    ordered = sorted(indices, key=columns[axis].__getitem__)
    if axis == len(columns) - 1:
        return [
            ordered[i : i + per_node] for i in range(0, len(ordered), per_node)
        ]
    leaf_count = math.ceil(len(indices) / per_node)
    remaining_axes = len(columns) - axis
    slab_count = max(1, math.ceil(leaf_count ** (1.0 / remaining_axes)))
    slab_capacity = per_node * math.ceil(leaf_count / slab_count)
    groups: List[List[int]] = []
    for i in range(0, len(ordered), slab_capacity):
        slab = ordered[i : i + slab_capacity]
        groups.extend(_str_partition(slab, columns, per_node, axis + 1))
    return groups
