"""Randomized long-horizon consistency checks (seeded, deterministic).

These go beyond the hypothesis property tests by driving one index through
hundreds of mixed operations and cross-checking *every* query type against
brute force at checkpoints — the closest thing to a miniature production
soak test the suite has.
"""

import random

import pytest

from repro import (
    QueryConfig,
    RTree,
    linear_scan,
    nearest,
    validate_tree,
    within_distance,
)
from repro.core.aggregate import aggregate_nearest
from repro.core.farthest import farthest_best_first
from repro.geometry.point import euclidean
from tests.conftest import assert_same_distances

SEEDS = [101, 202, 303]


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_workload_soak(seed):
    rng = random.Random(seed)
    tree = RTree(max_entries=rng.choice([4, 6, 8]))
    live = {}
    next_id = 0

    for step in range(600):
        roll = rng.random()
        if roll < 0.55 or not live:
            point = (rng.uniform(-100, 100), rng.uniform(-100, 100))
            tree.insert(point, payload=next_id)
            live[next_id] = point
            next_id += 1
        elif roll < 0.85:
            victim = rng.choice(list(live))
            assert tree.delete(live.pop(victim), payload=victim)
        else:
            _checkpoint(tree, live, rng)

    validate_tree(tree)
    _checkpoint(tree, live, rng)


def _checkpoint(tree, live, rng):
    validate_tree(tree)
    assert len(tree) == len(live)
    if not live:
        return
    q = (rng.uniform(-120, 120), rng.uniform(-120, 120))
    k = rng.randint(1, min(6, len(live)))

    oracle = linear_scan(tree, q, k=k)
    for algorithm in ("dfs", "best-first"):
        got = nearest(tree, q, k=k, config=QueryConfig(algorithm=algorithm))
        assert_same_distances(got.neighbors, oracle, tolerance=1e-6)

    radius = rng.uniform(0, 60)
    got_ids = sorted(n.payload for n in within_distance(tree, q, radius))
    want_ids = sorted(
        i for i, p in live.items() if euclidean(q, p) <= radius + 1e-9
    )
    loose_ids = sorted(
        i for i, p in live.items() if euclidean(q, p) <= radius * (1 + 1e-9) + 1e-6
    )
    assert set(want_ids) - set(loose_ids) == set()
    assert set(got_ids) <= set(loose_ids)
    assert set(w for w in want_ids if w not in got_ids) <= (
        set(loose_ids) - set(want_ids)
    )

    far, _ = farthest_best_first(tree, q, k=1)
    true_far = max(euclidean(q, p) for p in live.values())
    assert far[0].distance == pytest.approx(true_far, rel=1e-9, abs=1e-6)

    group = [
        (rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(2)
    ]
    agg, _ = aggregate_nearest(tree, group, k=1, aggregate="sum")
    true_best = min(
        sum(euclidean(g, p) for g in group) for p in live.values()
    )
    assert agg[0].distance == pytest.approx(true_best, rel=1e-9, abs=1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_serialize_fuzz_roundtrip(seed, tmp_path):
    from repro import load_tree, save_tree

    rng = random.Random(seed)
    tree = RTree(max_entries=5)
    for i in range(rng.randint(1, 300)):
        tree.insert(
            (rng.uniform(0, 50), rng.uniform(0, 50)), payload=i
        )
    path = tmp_path / f"fuzz-{seed}.json"
    save_tree(tree, path)
    restored = load_tree(path)
    validate_tree(restored)
    q = (rng.uniform(0, 50), rng.uniform(0, 50))
    assert_same_distances(
        nearest(restored, q, k=3).neighbors,
        nearest(tree, q, k=3).neighbors,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_disk_fuzz_roundtrip(seed, tmp_path):
    from repro.rtree.disk import DiskRTree, write_tree

    rng = random.Random(seed)
    tree = RTree(max_entries=6)
    n = rng.randint(1, 400)
    for i in range(n):
        tree.insert((rng.uniform(0, 50), rng.uniform(0, 50)), payload=i)
    path = tmp_path / f"fuzz-{seed}.rnn"
    write_tree(tree, path, page_size=1024)
    with DiskRTree(path, page_size=1024, cache_nodes=3) as disk:
        assert len(disk) == n
        for _ in range(5):
            q = (rng.uniform(-10, 60), rng.uniform(-10, 60))
            k = rng.randint(1, 4)
            assert_same_distances(
                nearest(disk, q, k=k).neighbors,
                linear_scan(tree, q, k=k),
            )
