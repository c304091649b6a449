"""Cross-algorithm agreement: every search strategy, one truth."""

import pytest

from repro import bulk_load, linear_scan
from repro.baselines import KdTree
from repro.core.knn_best_first import nearest_best_first, nearest_incremental
from repro.core.knn_dfs import nearest_dfs
from repro.datasets import gaussian_clusters, skewed_points, uniform_points
from tests.conftest import assert_same_distances, build_point_tree

DISTRIBUTIONS = {
    "uniform": uniform_points,
    "clustered": gaussian_clusters,
    "skewed": skewed_points,
}


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("k", [1, 4, 9])
def test_five_ways_agree(name, k):
    points = DISTRIBUTIONS[name](700, seed=41)
    items = [(p, i) for i, p in enumerate(points)]
    dynamic = build_point_tree(points, max_entries=8)
    packed = bulk_load(items, max_entries=8)
    kd = KdTree(items)

    for q in [(0.0, 0.0), (500.0, 500.0), (31.0, 977.0)]:
        oracle = linear_scan(dynamic, q, k=k)
        candidates = {
            "dfs/dynamic": nearest_dfs(dynamic, q, k=k)[0],
            "dfs/packed": nearest_dfs(packed, q, k=k)[0],
            "dfs/minmaxdist": nearest_dfs(dynamic, q, k=k, ordering="minmaxdist")[0],
            "best-first": nearest_best_first(dynamic, q, k=k)[0],
            "incremental": _take(nearest_incremental(dynamic, q), k),
            "kd-tree": kd.nearest(q, k=k)[0],
        }
        for label, got in candidates.items():
            assert_same_distances(got, oracle), label


def _take(stream, k):
    out = []
    for neighbor in stream:
        out.append(neighbor)
        if len(out) == k:
            break
    return out


def test_three_dimensional_agreement():
    import random

    rng = random.Random(42)
    points = [
        (rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100))
        for _ in range(500)
    ]
    tree = build_point_tree(points, max_entries=8)
    kd = KdTree([(p, i) for i, p in enumerate(points)])
    for q in [(50.0, 50.0, 50.0), (0.0, 100.0, 0.0)]:
        oracle = linear_scan(tree, q, k=6)
        assert_same_distances(nearest_dfs(tree, q, k=6)[0], oracle)
        assert_same_distances(kd.nearest(q, k=6)[0], oracle)


def test_rect_data_dfs_vs_best_first():
    from repro.datasets.synthetic import uniform_rects

    rects = uniform_rects(600, seed=43)
    tree = bulk_load([(r, i) for i, r in enumerate(rects)], max_entries=10)
    for q in [(1.0, 1.0), (500.0, 250.0)]:
        a, _ = nearest_dfs(tree, q, k=5)
        b, _ = nearest_best_first(tree, q, k=5)
        assert_same_distances(a, b)
