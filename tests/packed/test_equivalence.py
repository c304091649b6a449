"""Packed kernels must reproduce the object kernels bit-for-bit.

Every case asserts full equality: payload order, exact distances, rect
identity, and the complete :class:`SearchStats` dataclass (node counts,
objects examined, branch entries, every pruning counter).  The workloads
come from :mod:`repro.audit.workloads`, which deliberately generates grid
ties, duplicate points, on-face queries, 2-D and 3-D data, and mixed
fanouts/splits — the cases where a subtly wrong kernel diverges first.
"""

import pytest

from repro.audit.backends import build_memory_tree
from repro.audit.workloads import make_workload
from repro.core.budget import Budget
from repro.core.config import QueryConfig
from repro.core.knn_best_first import nearest_best_first
from repro.core.knn_dfs import nearest_dfs
from repro.core.pruning import PruningConfig
from repro.datasets.synthetic import uniform_points
from repro.geometry.rect import Rect
from repro.obs import Trace
from repro.packed.batch import packed_nearest_batch
from repro.packed.kernels import (
    packed_nearest_best_first,
    packed_nearest_dfs,
)
from repro.packed.layout import PackedTree
from repro.rtree.tree import RTree
from repro.service.engine import QueryEngine
from repro.service.options import EngineOptions
from repro.storage.tracker import CountingTracker

pytestmark = pytest.mark.packed

PRUNING_CONFIGS = [
    PruningConfig.all(),
    PruningConfig.none(),
    PruningConfig.only_p3(),
]


def _assert_identical(packed_out, object_out):
    pk_neighbors, pk_stats = packed_out
    obj_neighbors, obj_stats = object_out
    assert [nb.payload for nb in pk_neighbors] == [
        nb.payload for nb in obj_neighbors
    ]
    assert [nb.distance_squared for nb in pk_neighbors] == [
        nb.distance_squared for nb in obj_neighbors
    ]
    assert [nb.distance for nb in pk_neighbors] == [
        nb.distance for nb in obj_neighbors
    ]
    # Same rect *objects*, not just equal rects.
    assert all(
        a.rect is b.rect for a, b in zip(pk_neighbors, obj_neighbors)
    )
    assert pk_stats == obj_stats


@pytest.mark.parametrize("distribution", ["uniform", "clustered"])
@pytest.mark.parametrize("case_index", range(6))
def test_dfs_equivalence_on_audit_workloads(distribution, case_index):
    workload = make_workload(1995, case_index, distribution)
    tree = build_memory_tree(
        workload.points,
        max_entries=workload.max_entries,
        split=workload.split,
        use_bulk_load=workload.use_bulk_load,
    )
    packed = PackedTree.from_tree(tree)
    for query in workload.queries:
        for k in workload.ks:
            for ordering in ("mindist", "minmaxdist"):
                for pruning in PRUNING_CONFIGS:
                    _assert_identical(
                        packed_nearest_dfs(
                            packed, query, k=k,
                            ordering=ordering, pruning=pruning,
                        ),
                        nearest_dfs(
                            tree, query, k=k,
                            ordering=ordering, pruning=pruning,
                        ),
                    )


@pytest.mark.parametrize("case_index", range(6))
def test_best_first_equivalence_on_audit_workloads(case_index):
    workload = make_workload(2600, case_index, "uniform")
    tree = build_memory_tree(
        workload.points,
        max_entries=workload.max_entries,
        split=workload.split,
        use_bulk_load=workload.use_bulk_load,
    )
    packed = PackedTree.from_tree(tree)
    for query in workload.queries:
        for k in workload.ks:
            _assert_identical(
                packed_nearest_best_first(packed, query, k=k),
                nearest_best_first(tree, query, k=k),
            )


@pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.25, 1.0])
def test_epsilon_band_equivalence(epsilon):
    workload = make_workload(7, 3, "clustered")
    tree = build_memory_tree(workload.points)
    packed = PackedTree.from_tree(tree)
    for query in workload.queries:
        _assert_identical(
            packed_nearest_dfs(packed, query, k=4, epsilon=epsilon),
            nearest_dfs(tree, query, k=4, epsilon=epsilon),
        )
        _assert_identical(
            packed_nearest_best_first(packed, query, k=4, epsilon=epsilon),
            nearest_best_first(tree, query, k=4, epsilon=epsilon),
        )


def test_rect_data_equivalence():
    """Non-point leaves: overlapping, nested and degenerate rectangles."""
    tree = RTree(max_entries=6)
    rects = []
    for i in range(120):
        x = float((i * 13) % 90)
        y = float((i * 29) % 70)
        if i % 3 == 0:
            rect = Rect((x, y), (x, y))  # degenerate (a point)
        elif i % 3 == 1:
            rect = Rect((x, y), (x + 10.0, y + 4.0))
        else:
            rect = Rect((x - 5.0, y - 5.0), (x + 5.0, y + 5.0))
        rects.append(rect)
        tree.insert(rect, payload=i)
    packed = PackedTree.from_tree(tree)
    queries = [
        (0.0, 0.0), (45.0, 35.0), (89.0, 69.0), (13.0, 29.0), (-20.0, 100.0),
    ]
    for query in queries:
        for k in (1, 5, 200):
            for ordering in ("mindist", "minmaxdist"):
                _assert_identical(
                    packed_nearest_dfs(packed, query, k=k, ordering=ordering),
                    nearest_dfs(tree, query, k=k, ordering=ordering),
                )
            _assert_identical(
                packed_nearest_best_first(packed, query, k=k),
                nearest_best_first(tree, query, k=k),
            )


def test_tracker_parity():
    """Page-access streams (ids and leaf flags) must match exactly."""

    class RecordingTracker(CountingTracker):
        def __init__(self):
            super().__init__()
            self.trace = []

        def access(self, node_id, is_leaf):
            self.trace.append((node_id, is_leaf))
            return super().access(node_id, is_leaf)

    workload = make_workload(42, 1, "uniform")
    tree = build_memory_tree(workload.points)
    packed = PackedTree.from_tree(tree)
    for query in workload.queries:
        obj_tracker = RecordingTracker()
        pk_tracker = RecordingTracker()
        nearest_dfs(tree, query, k=3, tracker=obj_tracker)
        packed_nearest_dfs(packed, query, k=3, tracker=pk_tracker)
        assert pk_tracker.trace == obj_tracker.trace
        obj_tracker = RecordingTracker()
        pk_tracker = RecordingTracker()
        nearest_best_first(tree, query, k=3, tracker=obj_tracker)
        packed_nearest_best_first(packed, query, k=3, tracker=pk_tracker)
        assert pk_tracker.trace == obj_tracker.trace


def test_validation_errors_match_object_kernels():
    tree = build_memory_tree(make_workload(1, 0, "uniform").points)
    packed = PackedTree.from_tree(tree)
    from repro.errors import DimensionMismatchError, InvalidParameterError

    with pytest.raises(InvalidParameterError):
        packed_nearest_dfs(packed, (1.0, 2.0), k=0)
    with pytest.raises(InvalidParameterError):
        packed_nearest_dfs(packed, (1.0, 2.0), k=1, ordering="nope")
    with pytest.raises(InvalidParameterError):
        packed_nearest_dfs(packed, (1.0, 2.0), k=1, epsilon=-0.5)
    # Non-finite epsilon and non-integral k: the same typed error at the
    # packed, batch and object doors (best-first used to answer NaN/inf
    # with zero neighbors; k=2.5 escaped as a bare TypeError).
    for bad in (float("nan"), float("inf"), float("-inf")):
        for kernel, index in (
            (packed_nearest_dfs, packed),
            (packed_nearest_best_first, packed),
            (nearest_dfs, tree),
            (nearest_best_first, tree),
        ):
            with pytest.raises(InvalidParameterError):
                kernel(index, (1.0, 2.0), k=1, epsilon=bad)
        with pytest.raises(InvalidParameterError):
            packed_nearest_batch(packed, [(1.0, 2.0)], k=1, epsilon=bad)
    for bad_k in (2.5, "3", None):
        with pytest.raises(InvalidParameterError):
            packed_nearest_dfs(packed, (1.0, 2.0), k=bad_k)
        with pytest.raises(InvalidParameterError):
            packed_nearest_best_first(packed, (1.0, 2.0), k=bad_k)
        with pytest.raises(InvalidParameterError):
            packed_nearest_batch(packed, [(1.0, 2.0)], k=bad_k)
    wrong_dim = (1.0,) * (packed.dimension + 1)
    with pytest.raises(DimensionMismatchError):
        packed_nearest_dfs(packed, wrong_dim, k=1)
    with pytest.raises(DimensionMismatchError):
        packed_nearest_best_first(packed, wrong_dim, k=1)


def test_empty_tree_returns_empty():
    packed = PackedTree.from_tree(RTree())
    neighbors, stats = packed_nearest_dfs(packed, (1.0, 2.0), k=5)
    assert neighbors == [] and stats.nodes_accessed == 0
    neighbors, stats = packed_nearest_best_first(packed, (1.0, 2.0), k=5)
    assert neighbors == [] and stats.nodes_accessed == 0


@pytest.mark.parametrize("dimension", [2, 3])
def test_huge_k_is_bounded_by_tree_size(dimension):
    """``k`` far beyond ``n`` must not size the candidate heap.

    Every packed door returns all ``n`` neighbors, bit-identical (stats
    included) to the object kernels, without allocating ``k`` slots —
    at ``k = 10**9`` the old ``[sentinel] * k`` prefill is ~8 GB.
    """
    points = uniform_points(300, seed=13, dimension=dimension)
    tree = build_memory_tree(points)
    packed = PackedTree.from_tree(tree)
    huge = 10 ** 9
    queries = [points[7], (500.0,) * dimension]
    instrumented = ({}, {"trace": Trace()}, {"budget": Budget(max_pages=huge)})
    for query in queries:
        obj_dfs = nearest_dfs(tree, query, k=huge)
        obj_bf = nearest_best_first(tree, query, k=huge)
        assert len(obj_dfs[0]) == len(obj_bf[0]) == len(points)
        for kwargs in instrumented:
            _assert_identical(
                packed_nearest_dfs(packed, query, k=huge, **kwargs), obj_dfs
            )
            _assert_identical(
                packed_nearest_best_first(packed, query, k=huge, **kwargs),
                obj_bf,
            )
    for vectorize in (False, None):
        batch = packed_nearest_batch(
            packed, queries, k=huge, vectorize=vectorize
        )
        for query, got in zip(queries, batch):
            _assert_identical(got, nearest_best_first(tree, query, k=huge))
    options = EngineOptions(packed=True, workers=1)
    with QueryEngine(tree, options=options) as engine:
        for algorithm, kernel in (
            ("dfs", nearest_dfs), ("best-first", nearest_best_first)
        ):
            result = engine.query(
                queries[1], config=QueryConfig(k=huge, algorithm=algorithm)
            )
            _assert_identical(
                (result.neighbors, result.stats),
                kernel(tree, queries[1], k=huge),
            )
