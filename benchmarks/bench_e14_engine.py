"""E14 — the serving layer: concurrent, cached batch execution."""

import time

import pytest

from repro import EngineOptions, QueryConfig, QueryEngine, nearest
from repro.bench.experiments import get_experiment
from repro.datasets import gaussian_clusters
from repro.datasets.queries import query_points_clustered_sessions


@pytest.fixture(scope="module")
def clustered_tree():
    from repro.bench.harness import build_tree, points_as_items

    return build_tree(points_as_items(gaussian_clusters(16384, seed=141)))


@pytest.fixture(scope="module")
def session_queries():
    data = gaussian_clusters(16384, seed=141)
    return query_points_clustered_sessions(
        10000, data, distinct=500, seed=142
    )


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_e14_engine_benchmark(benchmark, clustered_tree, session_queries, workers):
    config = QueryConfig(k=4)

    def run():
        with QueryEngine(
            clustered_tree,
            config=config,
            options=EngineOptions(workers=workers),
        ) as engine:
            return engine.query_batch(session_queries)

    results = benchmark(run)
    assert len(results) == len(session_queries)


def test_e14_engine_beats_sequential(clustered_tree, session_queries):
    """The acceptance gate: 10k clustered queries, 4 workers, cache on —
    the engine must beat a bare sequential `nearest` loop wall-clock,
    returning identical results."""
    config = QueryConfig(k=4)

    start = time.perf_counter()
    sequential = [
        nearest(clustered_tree, q, config=config) for q in session_queries
    ]
    sequential_s = time.perf_counter() - start

    with QueryEngine(
        clustered_tree, config=config, options=EngineOptions(workers=4)
    ) as engine:
        start = time.perf_counter()
        served = engine.query_batch(session_queries)
        engine_s = time.perf_counter() - start
        stats = engine.stats()

    for a, b in zip(served, sequential):
        assert a.distances() == b.distances()
        assert a.payloads() == b.payloads()
    assert stats.cache_hits > 0
    assert engine_s < sequential_s, (
        f"engine {engine_s:.2f}s not faster than sequential {sequential_s:.2f}s"
    )


def test_regenerate_table(quick_scale, capsys):
    (table,) = get_experiment("E14").run(quick_scale)
    with capsys.disabled():
        print("\n" + table.render())
    hit_rates = [float(v) for v in table.column("hit rate")]
    # The session-clustered engine rows must show real cache traffic.
    assert max(hit_rates) > 0.5
