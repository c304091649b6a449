"""Batched nearest-neighbor queries with shared caching.

The POI-session pattern — many queries against one index, sharing a buffer
pool so the tree's upper levels are read once — packaged as an API instead
of a loop the caller writes.

Since the serving layer landed, :func:`nearest_batch` is a thin veneer
over :class:`repro.service.QueryEngine`: ``config=`` says what each query
means, ``options=`` (an :class:`~repro.service.options.EngineOptions`,
the same dataclass every engine constructor takes) says how the batch
executes.  The default,
:meth:`~repro.service.options.EngineOptions.batch_defaults` (``workers=1``,
result cache off, 64-page shared buffer), reproduces the historical
sequential semantics and page accounting exactly; pass
``options=EngineOptions(workers=4, cache_size=4096)`` to opt a call site
into the engine's concurrency and result reuse without changing the
return contract.

With ``EngineOptions(packed=True)`` and a single worker, best-first
windows additionally route through the multi-query batch kernel
(:mod:`repro.packed.batch`): one shared slab traversal answers the whole
window, with results and statistics still bit-identical to the
sequential loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.config import QueryConfig
from repro.core.query import NNResult, resolve_config
from repro.core.stats import SearchStats
from repro.errors import InvalidParameterError
from repro.rtree.tree import RTree

if TYPE_CHECKING:  # a runtime import would cycle through repro.service
    from repro.service.options import EngineOptions

__all__ = ["nearest_batch"]


def nearest_batch(
    tree: RTree,
    points: Sequence[Sequence[float]],
    k: Optional[int] = None,
    config: Optional[QueryConfig] = None,
    options: Optional["EngineOptions"] = None,
) -> Tuple[List[NNResult], SearchStats, float]:
    """Run one k-NN query per point through a shared LRU buffer.

    Args:
        tree: The index.
        points: Query points, answered in order.
        k: Neighbors per point; overrides ``config.k``.
        config: A :class:`~repro.core.config.QueryConfig` describing what
            each query means.
        options: An :class:`~repro.service.options.EngineOptions`
            describing how the batch *executes* (workers, cache,
            buffering, packed routing).  Defaults to
            :meth:`~repro.service.options.EngineOptions.batch_defaults`
            — sequential, uncached, 64-page shared buffer: one search
            per point, the historical accounting.

    Returns:
        ``(results, combined_stats, disk_reads_per_query)`` — one
        :class:`NNResult` per point, the merged logical statistics, and
        the average *physical* reads per query after buffering.
    """
    from repro.service.engine import QueryEngine
    from repro.service.options import EngineOptions

    if not points:
        raise InvalidParameterError("points must be non-empty")
    cfg = resolve_config(config, k)
    opts = options if options is not None else EngineOptions.batch_defaults()
    with QueryEngine(tree, config=cfg, options=opts) as engine:
        results = engine.query_batch(points)
        physical_reads = engine.tracker.physical_reads()
    combined = SearchStats()
    for result in results:
        combined.merge(result.stats)
    disk_reads_per_query = physical_reads / float(len(points))
    return results, combined, disk_reads_per_query
