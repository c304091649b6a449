"""Shared machinery for running query batches and building trees.

Every experiment boils down to: build an index over a workload, fire a batch
of queries through it with some configuration, and average the statistics.
:func:`run_query_batch` is that inner loop; :class:`BatchResult` carries the
averages the tables report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.config import QueryConfig
from repro.core.knn_dfs import ObjectDistance
from repro.core.pruning import PruningConfig
from repro.core.query import nearest
from repro.core.stats import SearchStats
from repro.errors import InvalidParameterError
from repro.geometry.rect import Rect
from repro.rtree.bulk import bulk_load
from repro.rtree.tree import RTree, RectLike
from repro.storage.pager import PageModel
from repro.storage.tracker import AccessTracker

__all__ = ["BatchResult", "build_tree", "default_page_model", "run_query_batch"]


def default_page_model(page_size: int = 1024, dimension: int = 2) -> PageModel:
    """The paper's configuration: 1 KiB pages over 2-D data."""
    return PageModel(page_size=page_size, dimension=dimension)


def build_tree(
    items: Sequence[Tuple[RectLike, Any]],
    method: str = "bulk",
    page_model: Optional[PageModel] = None,
    split: str = "quadratic",
    forced_reinsert: bool = False,
) -> RTree:
    """Build an R-tree sized to *page_model* from ``(rect, payload)`` pairs.

    ``method="bulk"`` uses STR packing (fast, tight — used for the large
    sweeps); ``method="hilbert"`` / ``method="morton"`` pack along a space-filling curve;
    ``method="insert"`` builds by repeated dynamic insertion (what the
    split-strategy ablation measures).
    """
    model = page_model if page_model is not None else default_page_model()
    max_entries = model.max_entries()
    min_entries = model.min_entries()
    if method == "bulk":
        return bulk_load(items, max_entries=max_entries, min_entries=min_entries)
    if method in ("hilbert", "morton"):
        return bulk_load(
            items,
            max_entries=max_entries,
            min_entries=min_entries,
            method=method,
        )
    if method == "insert":
        tree = RTree(
            max_entries=max_entries,
            min_entries=min_entries,
            split=split,
            forced_reinsert=forced_reinsert,
        )
        for rect, payload in items:
            tree.insert(rect, payload)
        return tree
    raise InvalidParameterError(
        f"method must be 'bulk', 'hilbert', 'morton' or 'insert', got {method!r}"
    )


@dataclass
class BatchResult:
    """Averages over one batch of queries."""

    queries: int
    avg_pages: float
    avg_leaf_pages: float
    avg_internal_pages: float
    avg_objects_examined: float
    avg_pruned_p1: float
    avg_pruned_p3: float
    avg_branch_entries: float
    avg_time_ms: float
    #: Physical page reads per query when a buffer pool was supplied
    #: (equals avg_pages otherwise).
    avg_disk_reads: float
    buffer_hit_ratio: float


def run_query_batch(
    tree: RTree,
    queries: Sequence[Sequence[float]],
    k: int = 1,
    algorithm: str = "dfs",
    ordering: str = "mindist",
    pruning: Optional[PruningConfig] = None,
    tracker_factory: Optional[Callable[[], AccessTracker]] = None,
    shared_tracker: Optional[AccessTracker] = None,
    object_distance_sq: Optional[ObjectDistance] = None,
) -> BatchResult:
    """Run every query and average the statistics.

    Two tracking modes:

    - *per-query* (default, or with ``tracker_factory``): each query gets a
      fresh tracker, so page counts are independent — the paper's
      no-buffer setting.
    - *shared* (``shared_tracker``, typically an LRU buffer pool): queries
      stream through one stateful tracker, reproducing the buffering
      experiment where consecutive queries hit cached top-level pages.
    """
    if not queries:
        raise InvalidParameterError("query batch must be non-empty")
    # The harness's own knobs map 1:1 onto QueryConfig fields.
    cfg = QueryConfig(
        k=k,
        algorithm=algorithm,
        ordering=ordering,
        pruning=pruning,
        object_distance_sq=object_distance_sq,
    )
    totals = SearchStats()
    total_time = 0.0
    total_disk_reads = 0.0
    hits = 0
    misses = 0

    for point in queries:
        if shared_tracker is not None:
            tracker: Optional[AccessTracker] = shared_tracker
            before = _disk_reads_of(shared_tracker)
        elif tracker_factory is not None:
            tracker = tracker_factory()
            before = 0.0
        else:
            tracker = None
            before = 0.0
        start = time.perf_counter()
        result = nearest(tree, point, config=cfg, tracker=tracker)
        total_time += time.perf_counter() - start
        totals.merge(result.stats)
        if shared_tracker is not None:
            total_disk_reads += _disk_reads_of(shared_tracker) - before
        else:
            total_disk_reads += result.stats.nodes_accessed

    if shared_tracker is not None:
        stats = getattr(shared_tracker, "stats", None)
        if stats is not None and hasattr(stats, "hits"):
            hits = stats.hits
            misses = stats.misses
    n = float(len(queries))
    hit_ratio = hits / (hits + misses) if (hits + misses) > 0 else 0.0
    return BatchResult(
        queries=len(queries),
        avg_pages=totals.nodes_accessed / n,
        avg_leaf_pages=totals.leaf_accesses / n,
        avg_internal_pages=totals.internal_accesses / n,
        avg_objects_examined=totals.objects_examined / n,
        avg_pruned_p1=totals.pruning.p1_pruned / n,
        avg_pruned_p3=totals.pruning.p3_pruned / n,
        avg_branch_entries=totals.branch_entries_considered / n,
        avg_time_ms=1000.0 * total_time / n,
        avg_disk_reads=total_disk_reads / n,
        buffer_hit_ratio=hit_ratio,
    )


def _disk_reads_of(tracker: AccessTracker) -> float:
    """Physical reads recorded so far by a buffer pool's inner counter."""
    inner = getattr(tracker, "inner", None)
    if inner is not None and hasattr(inner, "stats"):
        return float(inner.stats.total)
    stats = getattr(tracker, "stats", None)
    if stats is not None and hasattr(stats, "total"):
        return float(stats.total)
    return 0.0


def points_as_items(points: Sequence[Sequence[float]]) -> List[Tuple[Rect, int]]:
    """Wrap bare points into ``(rect, index)`` items for tree building."""
    return [(Rect.from_point(p), i) for i, p in enumerate(points)]

