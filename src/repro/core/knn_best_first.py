"""Best-first (priority-queue) k-NN search, after Hjaltason & Samet (1995/99).

The SIGMOD'95 depth-first search was followed shortly by the best-first
algorithm, which expands nodes in global MINDIST order and is provably
optimal in page accesses for a given tree.  We include it as the comparison
point of experiment E6 and as the engine of the *incremental* (distance
browsing) query, which yields neighbors one at a time in increasing distance
without a fixed k.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from repro.core.budget import Budget, finish_truncated
from repro.core.knn_dfs import ObjectDistance, _check_epsilon

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.trace import Trace
from repro.core.metrics import _mindist_sq_unchecked
from repro.core.neighbors import Neighbor, NeighborBuffer
from repro.core.stats import SearchStats
from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.geometry.point import as_point
from repro.rtree.tree import RTree
from repro.storage.tracker import AccessTracker

__all__ = ["nearest_best_first", "nearest_incremental"]


def nearest_best_first(
    tree: RTree,
    point: Sequence[float],
    k: int = 1,
    tracker: Optional[AccessTracker] = None,
    object_distance_sq: Optional[ObjectDistance] = None,
    epsilon: float = 0.0,
    trace: Optional["Trace"] = None,
    budget: Optional[Budget] = None,
) -> Tuple[List[Neighbor], SearchStats]:
    """Find the *k* nearest objects by best-first node expansion.

    Nodes wait in a min-heap keyed by MINDIST; objects are offered to the
    candidate buffer as their leaves are scanned.  Once the closest pending
    node cannot beat the k-th candidate, the search stops — no node whose
    subtree could matter is ever read, which is why this algorithm is the
    page-access lower bound for the experiments.

    ``epsilon > 0`` trades exactness for fewer page reads: a pending node
    is only expanded if it could beat the k-th candidate by more than a
    ``(1 + epsilon)`` factor, so every returned distance is within
    ``(1 + epsilon)`` of its exact counterpart.

    Pass a :class:`repro.obs.Trace` via *trace* to record the expansion
    order (enter events carry each node's MINDIST key; exit events are
    elided because the traversal is iterative, not nested).

    A *budget* is charged once per node expansion.  On exhaustion the
    frontier bound is simply the refused node's MINDIST key — the heap
    minimum, which lower-bounds everything still pending — and the
    best-so-far neighbors form a sound prefix within it (or
    :class:`~repro.errors.DeadlineExceeded` raises, per the budget's
    ``on_exhausted`` policy).
    """
    query = as_point(point)
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    _check_epsilon(epsilon)
    stats = SearchStats()
    if len(tree) == 0:
        return [], stats
    if tree.dimension != len(query):
        raise DimensionMismatchError(tree.dimension, len(query), "query point")

    shrink_sq = 1.0 / (1.0 + epsilon) ** 2
    clock = budget.start() if budget is not None else None
    frontier_sq = math.inf
    buffer = NeighborBuffer(k)
    root_level = tree.root.level
    counter = 0
    heap: List[tuple] = [(0.0, counter, tree.root)]
    while heap:
        key_sq, _, node = heapq.heappop(heap)
        if key_sq >= buffer.worst_distance_squared * shrink_sq:
            break
        if clock is not None and clock.charge():
            # The popped key is the heap minimum: a sound lower bound on
            # every pending node's subtree, hence the frontier.
            frontier_sq = key_sq
            break
        if tracker is not None:
            tracker.access(node.node_id, node.is_leaf)
        stats.record_node(node.is_leaf)
        if trace is not None:
            trace.enter(
                root_level - node.level, node.node_id, node.is_leaf, key_sq
            )
        if node.is_leaf:
            depth = root_level - node.level
            for entry in node.entries:
                if object_distance_sq is not None:
                    dist_sq = object_distance_sq(query, entry.payload, entry.rect)
                else:
                    dist_sq = _mindist_sq_unchecked(query, entry.rect)
                stats.objects_examined += 1
                accepted = buffer.offer(dist_sq, entry.payload, entry.rect)
                if accepted and trace is not None:
                    trace.accept(depth, dist_sq)
            continue
        for entry in node.entries:
            md_sq = _mindist_sq_unchecked(query, entry.rect)
            stats.branch_entries_considered += 1
            if md_sq < buffer.worst_distance_squared * shrink_sq:
                counter += 1
                heapq.heappush(heap, (md_sq, counter, entry.child))
            else:
                stats.pruning.p3_pruned += 1
                if trace is not None:
                    trace.prune(
                        "p3",
                        root_level - entry.child.level,
                        entry.child.node_id,
                        md_sq,
                        buffer.worst_distance_squared * shrink_sq,
                    )
    if clock is not None and clock.reason:
        finish_truncated(stats, budget, clock.reason, frontier_sq)
    return buffer.to_sorted_list(), stats


def nearest_incremental(
    tree: RTree,
    point: Sequence[float],
    tracker: Optional[AccessTracker] = None,
    object_distance_sq: Optional[ObjectDistance] = None,
    stats: Optional[SearchStats] = None,
    trace: Optional["Trace"] = None,
    budget: Optional[Budget] = None,
) -> Iterator[Neighbor]:
    """Yield every indexed object in increasing distance from *point*.

    This is Hjaltason & Samet's *distance browsing*: callers stop consuming
    whenever they have enough, and only the work needed so far is done.
    Pass a :class:`SearchStats` via *stats* to observe page accesses.

    The queue holds both nodes (keyed by MINDIST, a lower bound for their
    content) and objects (keyed by actual distance); an object can be
    yielded exactly when it reaches the front, because nothing still queued
    can be closer.

    A *budget* is charged once per node expansion (object pops are free —
    their work was already paid for).  In ``"truncate"`` mode the stream
    simply ends early, with the caller's *stats* flagged ``truncated``
    and ``frontier_sq`` set to the refused heap key; every neighbor
    already yielded is exact, since it reached the heap front.  In
    ``"raise"`` mode, :class:`~repro.errors.DeadlineExceeded` raises out
    of the generator.
    """
    query = as_point(point)
    if stats is None:
        stats = SearchStats()
    if len(tree) == 0:
        return
    if tree.dimension != len(query):
        raise DimensionMismatchError(tree.dimension, len(query), "query point")

    clock = budget.start() if budget is not None else None
    root_level = tree.root.level
    counter = 0
    # Heap items: (key_sq, tiebreak, is_object, node_or_neighbor)
    heap: List[tuple] = [(0.0, counter, False, tree.root)]
    while heap:
        key_sq, _, is_object, item = heapq.heappop(heap)
        if is_object:
            if trace is not None:
                trace.accept(root_level, item.distance_squared)
            yield item
            continue
        node = item
        if clock is not None and clock.charge():
            finish_truncated(stats, budget, clock.reason, key_sq)
            return
        if tracker is not None:
            tracker.access(node.node_id, node.is_leaf)
        stats.record_node(node.is_leaf)
        if trace is not None:
            trace.enter(
                root_level - node.level, node.node_id, node.is_leaf, key_sq
            )
        if node.is_leaf:
            for entry in node.entries:
                if object_distance_sq is not None:
                    dist_sq = object_distance_sq(query, entry.payload, entry.rect)
                else:
                    dist_sq = _mindist_sq_unchecked(query, entry.rect)
                stats.objects_examined += 1
                counter += 1
                neighbor = Neighbor(
                    entry.payload, entry.rect, dist_sq ** 0.5, dist_sq
                )
                heapq.heappush(heap, (dist_sq, counter, True, neighbor))
        else:
            for entry in node.entries:
                md_sq = _mindist_sq_unchecked(query, entry.rect)
                stats.branch_entries_considered += 1
                counter += 1
                heapq.heappush(heap, (md_sq, counter, False, entry.child))
