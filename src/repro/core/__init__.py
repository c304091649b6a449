"""The paper's primary contribution: branch-and-bound k-NN search on R-trees.

Contents map one-to-one onto the sections of Roussopoulos, Kelley & Vincent
(SIGMOD 1995):

- :mod:`repro.core.metrics` — Section 3: the MINDIST and MINMAXDIST
  point-to-MBR metrics and their bounding theorems (plus MAXDIST for the
  farthest-neighbor extension).
- :mod:`repro.core.pruning` — Section 4: pruning strategies P1, P2, P3.
- :mod:`repro.core.knn_dfs` — Sections 4-5: the ordered depth-first
  branch-and-bound search with its Active Branch List, generalized to k
  neighbors and to (1 + epsilon)-approximate search.
- :mod:`repro.core.knn_best_first` — the later Hjaltason-Samet best-first
  search, included as the I/O-optimal comparison point, plus incremental
  distance browsing.
- :mod:`repro.core.range_query` — within-radius queries.
- :mod:`repro.core.farthest` — farthest-neighbor queries (MAXDIST pruning).
- :mod:`repro.core.aggregate` — group (aggregate) nearest neighbors.
- :mod:`repro.core.query` — the user-facing façade.
"""

from repro.core.metrics import (
    maxdist,
    maxdist_squared,
    mindist,
    mindist_squared,
    minmaxdist,
    minmaxdist_squared,
)
from repro.core.config import QueryConfig
from repro.core.neighbors import Neighbor, NeighborBuffer
from repro.core.pruning import PruningConfig, PruningStats
from repro.core.stats import SearchStats
from repro.core.knn_dfs import nearest_dfs
from repro.core.knn_best_first import nearest_best_first, nearest_incremental
from repro.core.range_query import count_within_distance, within_distance
from repro.core.farthest import farthest_best_first
from repro.core.aggregate import aggregate_nearest
from repro.core.batch import nearest_batch
from repro.core.query import NearestNeighborQuery, NNResult, nearest

__all__ = [
    "NNResult",
    "NearestNeighborQuery",
    "Neighbor",
    "NeighborBuffer",
    "PruningConfig",
    "PruningStats",
    "QueryConfig",
    "SearchStats",
    "aggregate_nearest",
    "count_within_distance",
    "farthest_best_first",
    "maxdist",
    "maxdist_squared",
    "mindist",
    "mindist_squared",
    "minmaxdist",
    "minmaxdist_squared",
    "nearest",
    "nearest_batch",
    "nearest_best_first",
    "nearest_dfs",
    "nearest_incremental",
    "within_distance",
]
