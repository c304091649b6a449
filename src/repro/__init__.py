"""repro — Nearest Neighbor Queries on R-trees (SIGMOD 1995 reproduction).

A from-scratch implementation of Roussopoulos, Kelley & Vincent's
branch-and-bound k-nearest-neighbor algorithm, together with everything it
runs on: a dynamic R-tree with multiple split strategies, a page/buffer
simulation for I/O accounting, baselines (linear scan, kd-tree), workload
generators, and a bench harness reproducing the paper's evaluation.

Quickstart::

    from repro import RTree, nearest

    tree = RTree(max_entries=8)
    for i, (x, y) in enumerate([(1, 1), (5, 5), (9, 9)]):
        tree.insert((x, y), payload=f"poi-{i}")

    result = nearest(tree, (4.0, 4.0), k=2)
    print(result.payloads())        # ['poi-1', 'poi-0']
    print(result.stats.nodes_accessed)

The package root carries the paper's surface (metrics, pruning, the
searches and their results) plus the engines; every other name is
imported from its subpackage (``repro.rtree``, ``repro.storage``,
``repro.obs``, ...).  See DESIGN.md for the system inventory and
EXPERIMENTS.md for the reproduction of each figure and table in the paper.
"""

from repro.core import (
    NNResult,
    NearestNeighborQuery,
    Neighbor,
    PruningConfig,
    QueryConfig,
    SearchStats,
    mindist,
    mindist_squared,
    minmaxdist,
    minmaxdist_squared,
    nearest,
    nearest_batch,
    nearest_best_first,
    nearest_dfs,
    nearest_incremental,
)
from repro.core.budget import Budget
from repro.errors import InvalidParameterError, ReproError
from repro.geometry import Point, Rect, Segment
from repro.packed import PackedTree
from repro.rtree import DiskRTree, RTree, bulk_load, write_tree
from repro.service import Engine, EngineOptions, QueryEngine, ResilientEngine
from repro.server import NNServer, ServerConfig
from repro.shard import ShardedQueryEngine
from repro.baselines import linear_scan

__version__ = "1.0.0"

__all__ = [
    "Budget",
    "DiskRTree",
    "Engine",
    "EngineOptions",
    "InvalidParameterError",
    "NNResult",
    "NNServer",
    "NearestNeighborQuery",
    "Neighbor",
    "PackedTree",
    "Point",
    "PruningConfig",
    "QueryConfig",
    "QueryEngine",
    "RTree",
    "Rect",
    "ReproError",
    "ResilientEngine",
    "SearchStats",
    "Segment",
    "ServerConfig",
    "ShardedQueryEngine",
    "bulk_load",
    "linear_scan",
    "mindist",
    "mindist_squared",
    "minmaxdist",
    "minmaxdist_squared",
    "nearest",
    "nearest_batch",
    "nearest_best_first",
    "nearest_dfs",
    "nearest_incremental",
    "write_tree",
    "__version__",
]
