"""Timing benchmarks for the query extensions (not paper figures).

Covers the surface the paper's figures don't: within-radius, farthest,
aggregate NN and the disk tree — so a performance regression anywhere
in the library shows up in ``--benchmark-only`` runs.
"""

from repro.core import aggregate_nearest, farthest_best_first, within_distance


def test_within_distance_benchmark(benchmark, uniform_tree):
    result = benchmark(within_distance, uniform_tree, (500.0, 500.0), 50.0)
    assert result


def test_farthest_benchmark(benchmark, uniform_tree):
    neighbors, _ = benchmark(
        farthest_best_first, uniform_tree, (500.0, 500.0), 3
    )
    assert len(neighbors) == 3


def test_aggregate_benchmark(benchmark, uniform_tree):
    group = [(200.0, 200.0), (800.0, 300.0), (500.0, 900.0)]
    neighbors, _ = benchmark(aggregate_nearest, uniform_tree, group, 2, "sum")
    assert len(neighbors) == 2


def test_disk_tree_query_benchmark(benchmark, tmp_path_factory):
    from repro import nearest
    from repro.datasets import uniform_points
    from repro.rtree.disk import DiskRTree, build_disk_index

    path = tmp_path_factory.mktemp("bench") / "tree.rnn"
    points = uniform_points(16384, seed=194)
    with build_disk_index(
        [(p, i) for i, p in enumerate(points)], path
    ) as warmup:
        pass

    with DiskRTree(path, cache_nodes=64) as disk:
        def run():
            return [
                nearest(disk, (float(x), 500.0), k=4).distances()[0]
                for x in range(0, 1000, 100)
            ]

        distances = benchmark(run)
        assert len(distances) == 10
