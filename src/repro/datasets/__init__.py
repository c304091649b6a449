"""Workload generators for the experiment suite.

The paper evaluates on synthetic uniform points and on real TIGER/Line
street segments.  Real TIGER data is not available offline, so
:mod:`repro.datasets.roads` generates road maps with TIGER-like spatial
statistics (clustered towns, street grids, arterials); DESIGN.md documents
the substitution.  All generators are deterministic given a seed.
"""

from repro.datasets.synthetic import (
    gaussian_clusters,
    skewed_points,
    uniform_points,
    uniform_rects,
)
from repro.datasets.roads import RoadNetworkConfig, road_segments
from repro.datasets.io import load_points_csv, load_segments_csv
from repro.datasets.queries import (
    query_points_clustered_sessions,
    query_points_near_data,
    query_points_uniform,
)

__all__ = [
    "RoadNetworkConfig",
    "gaussian_clusters",
    "load_points_csv",
    "load_segments_csv",
    "query_points_clustered_sessions",
    "query_points_near_data",
    "query_points_uniform",
    "road_segments",
    "skewed_points",
    "uniform_points",
    "uniform_rects",
]
