"""User-facing query façade.

Most callers only need :func:`nearest`::

    from repro import RTree, nearest

    tree = RTree()
    tree.insert((2.0, 3.0), payload="library")
    result = nearest(tree, (0.0, 0.0), k=1)
    result.payloads()     # ["library"]
    result.stats.nodes_accessed

Configuration is a single :class:`~repro.core.config.QueryConfig` passed
as ``config=``, shared verbatim by :func:`nearest`,
:class:`NearestNeighborQuery`, :func:`repro.core.batch.nearest_batch`
and every engine.  ``k=`` is the one per-call override (it is per-call
intent, not configuration); :func:`resolve_config` applies it.
:class:`NearestNeighborQuery` packages a fixed configuration for
repeated use — the shape of the bench harness's inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.config import QueryConfig
from repro.core.knn_best_first import nearest_best_first
from repro.core.knn_dfs import nearest_dfs
from repro.core.neighbors import Neighbor
from repro.core.stats import SearchStats
from repro.rtree.tree import RTree
from repro.storage.tracker import AccessTracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.trace import Trace

__all__ = ["NNResult", "NearestNeighborQuery", "nearest", "resolve_config"]


def resolve_config(
    config: Optional[QueryConfig], k: Optional[int]
) -> QueryConfig:
    """*config* (``None``: ``QueryConfig()``) with the per-call *k* applied.

    The one home of "a per-call ``k=`` overrides the config": every
    engine, the HTTP door and the capture recorder resolve through here.
    """
    base = config if config is not None else QueryConfig()
    return base if k is None else base.replace(k=k)


@dataclass
class NNResult:
    """The outcome of one nearest-neighbor query."""

    neighbors: List[Neighbor]
    stats: SearchStats = field(default_factory=SearchStats)

    def __len__(self) -> int:
        return len(self.neighbors)

    def __iter__(self) -> Iterator[Neighbor]:
        return iter(self.neighbors)

    def __getitem__(self, index: Union[int, slice]):
        return self.neighbors[index]

    def payloads(self) -> List[Any]:
        """Payloads of the neighbors, nearest first."""
        return [n.payload for n in self.neighbors]

    def distances(self) -> List[float]:
        """Distances of the neighbors, nearest first."""
        return [n.distance for n in self.neighbors]

    @property
    def truncated(self) -> bool:
        """True if a budget stopped the search early (sound prefix)."""
        return self.stats.truncated

    @property
    def truncation_reason(self) -> str:
        """Why the budget refused: ``"deadline"``, ``"pages"``, or ``""``."""
        return self.stats.truncation_reason

    @property
    def frontier_distance(self) -> float:
        """Lower bound on the distance of anything left unexamined.

        ``inf`` for a complete search.  For a truncated one, every
        returned neighbor closer than this bound is within the query's
        epsilon band of the true answer at its rank.
        """
        return self.stats.frontier_sq ** 0.5

    def points(self) -> List[Tuple[float, ...]]:
        """Center of each neighbor's MBR, nearest first.

        For point data (the common case) the MBR is degenerate and this
        is exactly the indexed point.
        """
        return [tuple(n.rect.center) for n in self.neighbors]

    def to_dicts(self) -> List[Dict[str, Any]]:
        """One plain dict per neighbor — ready for tables, JSON or logs."""
        return [
            {
                "rank": rank,
                "payload": n.payload,
                "point": tuple(n.rect.center),
                "distance": n.distance,
            }
            for rank, n in enumerate(self.neighbors, start=1)
        ]

    def __repr__(self) -> str:
        if self.neighbors:
            best = f"{self.neighbors[0].distance:.6g}"
        else:
            best = "n/a"
        return (
            f"NNResult(k={len(self.neighbors)}, best_distance={best}, "
            f"nodes_accessed={self.stats.nodes_accessed})"
        )


def nearest(
    tree: RTree,
    point: Sequence[float],
    k: Optional[int] = None,
    tracker: Optional[AccessTracker] = None,
    config: Optional[QueryConfig] = None,
    trace: Optional["Trace"] = None,
) -> NNResult:
    """Find the *k* objects in *tree* nearest to *point*.

    Args:
        tree: The R-tree to search.
        point: Query point.
        k: How many neighbors to return; overrides ``config.k``.
        config: A :class:`QueryConfig` describing the query (k, algorithm,
            ordering, pruning, epsilon, object distance, budget) — the
            one configuration surface.
        tracker: Page-access tracker / buffer pool (instrumentation; not
            part of the query configuration).
        trace: Optional :class:`repro.obs.Trace` recording the search's
            full event stream (instrumentation, like *tracker*; not part
            of the query configuration).

    Returns:
        An :class:`NNResult` with the neighbors (nearest first) and the
        search statistics.
    """
    return _run_query(tree, point, resolve_config(config, k), tracker, trace)


def _run_query(
    tree: RTree,
    point: Sequence[float],
    cfg: QueryConfig,
    tracker: Optional[AccessTracker],
    trace: Optional["Trace"] = None,
) -> NNResult:
    """Dispatch a validated :class:`QueryConfig` to the search kernels."""
    if trace is not None:
        trace.meta.update(
            point=tuple(float(c) for c in point),
            k=cfg.k,
            algorithm=cfg.algorithm,
        )
    # Disk trees opened with on_corrupt="skip" count skipped pages; the
    # per-query delta lands in the stats so degraded results are visible.
    skipped_before = getattr(tree, "pages_skipped", 0)
    if cfg.algorithm == "dfs":
        neighbors, stats = nearest_dfs(
            tree,
            point,
            k=cfg.k,
            ordering=cfg.ordering,
            pruning=cfg.pruning,
            tracker=tracker,
            object_distance_sq=cfg.object_distance_sq,
            epsilon=cfg.epsilon,
            trace=trace,
            budget=cfg.budget,
        )
    else:
        neighbors, stats = nearest_best_first(
            tree,
            point,
            k=cfg.k,
            tracker=tracker,
            object_distance_sq=cfg.object_distance_sq,
            epsilon=cfg.epsilon,
            trace=trace,
            budget=cfg.budget,
        )
    stats.pages_skipped_corrupt = (
        getattr(tree, "pages_skipped", 0) - skipped_before
    )
    if trace is not None:
        trace.skips(stats.pages_skipped_corrupt)
    return NNResult(neighbors=neighbors, stats=stats)


class NearestNeighborQuery:
    """A reusable, pre-configured nearest-neighbor query.

    Example::

        cfg = QueryConfig(k=4, ordering="minmaxdist")
        query = NearestNeighborQuery(tree, config=cfg)
        for p in query_points:
            result = query(p)

    All configuration is validated eagerly at construction — a typo'd
    ordering raises :class:`~repro.errors.InvalidParameterError` here,
    not at the first call.
    """

    def __init__(
        self,
        tree: RTree,
        k: Optional[int] = None,
        tracker: Optional[AccessTracker] = None,
        config: Optional[QueryConfig] = None,
    ) -> None:
        self.tree = tree
        self.tracker = tracker
        self.config = resolve_config(config, k)

    def __call__(
        self,
        point: Sequence[float],
        k: Optional[int] = None,
        trace: Optional["Trace"] = None,
    ) -> NNResult:
        """Run the query from *point*; *k* overrides the configured value."""
        cfg = resolve_config(self.config, k)
        return _run_query(self.tree, point, cfg, self.tracker, trace)

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"NearestNeighborQuery(k={cfg.k}, algorithm={cfg.algorithm!r}, "
            f"ordering={cfg.ordering!r})"
        )
