"""Spatial partitioning of an item set into shard groups.

The sharded engine (:mod:`repro.shard.engine`) splits one logical index
into N independent :class:`~repro.packed.PackedTree` shards, each hosted
in its own worker process.  Everything downstream — shard-MBR pruning,
scatter-gather fan-out, load balance — is decided here, so the
partitioner has three jobs:

1. **Spatial coherence.** Shard MBRs should overlap as little as the
   data allows, because a query prunes a shard exactly when
   ``MINDIST(q, shard_MBR)`` beats the running k-th distance (the
   paper's P3 bound lifted from node level to shard level; see
   docs/SHARDING.md).  Tight, disjoint tiles make that bound sharp.
2. **Balance.** Shard sizes differ by at most one item, so scatter
   latency is governed by one shard's work, not the worst tile.
3. **Determinism.** The same items in the same order always produce the
   same plan — shard contents, shard order, MBRs — so differential
   tests can compare process- and in-process execution bit for bit.

The default ``"str"`` method is the Sort-Tile-Recursive discipline the
bulk loader uses (:mod:`repro.rtree.bulk`), applied top-down: sort the
items along the widest axis of their centers, cut into two runs sized
proportionally to the shard counts each side must produce, and recurse.
For degenerate distributions — every item at one point, where spatial
sorting is meaningless — ``"auto"`` falls back to ``"hash"``: a
deterministic hash of each item's quantized *region* (grid cell of its
center), balanced after the fact so no shard is ever empty.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Iterable, List, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.geometry.point import axis_columns
from repro.geometry.rect import Rect, _from_bounds

__all__ = ["ShardPlan", "plan_shards", "PARTITION_METHODS"]

#: Accepted ``method=`` spellings for :func:`plan_shards`.
PARTITION_METHODS = ("auto", "str", "hash")

Item = Tuple[Rect, Any]


@dataclass(frozen=True)
class ShardPlan:
    """The output of :func:`plan_shards`: who owns what, and where.

    ``groups[i]`` is the item list of shard *i* and ``mbrs[i]`` its
    minimum bounding rectangle (the pruning surface).  ``method`` records
    which partitioner actually ran (``"str"`` or ``"hash"`` — never
    ``"auto"``).
    """

    method: str
    groups: Tuple[Tuple[Item, ...], ...]
    mbrs: Tuple[Rect, ...]

    @property
    def shards(self) -> int:
        return len(self.groups)

    def sizes(self) -> List[int]:
        """Item count per shard."""
        return [len(g) for g in self.groups]

    def __repr__(self) -> str:
        return (
            f"ShardPlan(method={self.method!r}, shards={self.shards}, "
            f"sizes={self.sizes()})"
        )


def plan_shards(
    items: Iterable[Item],
    shards: int,
    method: str = "auto",
) -> ShardPlan:
    """Partition ``(rect, payload)`` items into at most *shards* groups.

    Every group is non-empty; if there are fewer items than requested
    shards, the plan simply has fewer groups (one per item).  ``method``
    is ``"str"`` (sort-tile-recursive bisection), ``"hash"``
    (deterministic hash of the item's region), or ``"auto"`` (``"str"``
    unless the distribution is degenerate — zero spatial extent on every
    axis — in which case ``"hash"``).
    """
    if method not in PARTITION_METHODS:
        raise InvalidParameterError(
            f"method must be one of {PARTITION_METHODS}, got {method!r}"
        )
    if shards < 1:
        raise InvalidParameterError(f"shards must be >= 1, got {shards}")
    pool = list(items)
    if not pool:
        raise InvalidParameterError("cannot partition an empty item set")
    effective = min(shards, len(pool))
    # Point rects as ``from_point`` builds them (``lo is hi``) are their own
    # centers (``Rect.center`` returns that tuple): one walk yields the sort
    # keys and both bounds.  A box or a stray dimension ends the walk.
    dimension = len(pool[0][0].lo)
    centers = []
    for rect, _ in pool:
        lo = rect.lo
        if lo is not rect.hi or len(lo) != dimension:
            break
        centers.append(lo)
    points = len(centers) == len(pool)
    if not points:
        centers = [rect.center for rect, _ in pool]
    if method == "auto":
        method = "hash" if _zero_extent(centers) else "str"
    if method == "hash":
        groups = [tuple(g) for g in _hash_groups(pool, centers, effective)]
    else:
        columns = axis_columns(centers)
        runs = _str_runs(columns, len(pool), effective)
        groups = [tuple(map(pool.__getitem__, run)) for run in runs]
    if points and method == "str":
        # ``union_all``'s box off the key columns: same floats, same order,
        # so ``min`` / ``max`` keep the same first of equals (-0.0 vs 0.0).
        mbrs = [_from_bounds(Rect, *_run_bounds(columns, run)) for run in runs]
    else:
        mbrs = [Rect.union_all([rect for rect, _ in g]) for g in groups]
    return ShardPlan(method=method, groups=tuple(groups), mbrs=tuple(mbrs))


# ----------------------------------------------------------------------
# STR tiling
# ----------------------------------------------------------------------

def _str_runs(
    columns: List[List[float]], size: int, shards: int
) -> List[List[int]]:
    """Sort-tile-recursive bisection into exactly *shards* index runs.

    Splitting the shard count (not the item count) in half at each level
    keeps sizes within one item of each other for any *shards*, while
    each cut stays a clean spatial slab along the currently widest axis
    — the same sort-and-slice discipline as the STR bulk loader, without
    requiring a perfect square of tiles.  Runs of item *indices*, C-level
    sort key: same floats, stable, same order as sorting the items.
    """

    def split(run: List[int], want: int) -> List[List[int]]:
        if want == 1 or len(run) <= 1:
            return [run]
        left_want = (want + 1) // 2
        right_want = want - left_want
        axis = _widest_axis(columns, run)
        run = sorted(run, key=columns[axis].__getitem__)
        # Cut proportionally to the shard counts, but never leave either
        # side with fewer items than the groups it still owes.
        cut = round(len(run) * left_want / want)
        cut = max(left_want, min(len(run) - right_want, cut))
        return split(run[:cut], left_want) + split(run[cut:], right_want)

    return split(list(range(size)), shards)


def _run_bounds(
    columns: List[List[float]], run: List[int]
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Per-axis ``(min, max)`` of the key columns over *run*, in run order."""
    values = [list(map(column.__getitem__, run)) for column in columns]
    return tuple(map(min, values)), tuple(map(max, values))


def _widest_axis(columns: List[List[float]], run: List[int]) -> int:
    extents = [hi - lo for lo, hi in zip(*_run_bounds(columns, run))]
    return extents.index(max(extents))  # the first of equally wide axes


def _zero_extent(centers: List[Sequence[float]]) -> bool:
    first = centers[0]
    return all(c == first for c in centers)


# ----------------------------------------------------------------------
# Hash-of-region fallback
# ----------------------------------------------------------------------

#: Grid resolution per axis for the region key (cells per bounding-box
#: extent).  Coarse on purpose: items in the same neighborhood should
#: land in the same shard so MBRs stay meaningful even under hashing.
_REGION_CELLS = 64


def _hash_groups(
    pool: List[Item], centers: List[Sequence[float]], shards: int
) -> List[List[Item]]:
    """Deterministic hash of each item's quantized region, rebalanced.

    The region key is the grid cell of the item's center over the data
    bounding box; CRC32 of the packed cell indices picks the shard.  A
    greedy rebalance pass then moves items out of the fullest shards so
    every shard ends non-empty and within one item of even — hashing
    must degrade *load balance* gracefully, never correctness.
    """
    dim = len(centers[0])
    lows = [min(c[axis] for c in centers) for axis in range(dim)]
    highs = [max(c[axis] for c in centers) for axis in range(dim)]
    spans = [max(highs[a] - lows[a], 0.0) for a in range(dim)]

    def region_key(center: Sequence[float]) -> bytes:
        cells = []
        for axis in range(dim):
            if spans[axis] <= 0.0:
                cells.append(0)
            else:
                frac = (center[axis] - lows[axis]) / spans[axis]
                cells.append(min(_REGION_CELLS - 1, int(frac * _REGION_CELLS)))
        return ",".join(str(c) for c in cells).encode("ascii")

    groups: List[List[Item]] = [[] for _ in range(shards)]
    for center, item in zip(centers, pool):
        groups[zlib.crc32(region_key(center)) % shards].append(item)

    # Rebalance: every shard ends within one item of even (so none is
    # empty — len(pool) >= shards here by construction).
    target_low = len(pool) // shards
    indices = list(range(shards))
    for i in indices:
        while len(groups[i]) < target_low:
            donor = max(indices, key=lambda j: len(groups[j]))
            if len(groups[donor]) <= target_low:
                break
            groups[i].append(groups[donor].pop())
    assert all(groups), "hash partitioner produced an empty shard"
    return groups
