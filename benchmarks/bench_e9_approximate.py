"""E9 — approximate search trade-off ((1+eps)-approximate k-NN)."""

import pytest

from repro.bench.experiments import get_experiment
from repro.bench.harness import run_query_batch
from repro.core.config import QueryConfig
from repro.core.query import nearest


@pytest.mark.parametrize("epsilon", [0.0, 0.25, 1.0])
def test_e9_approximate_benchmark(benchmark, uniform_tree, query_batch, epsilon):
    def run():
        return [
            nearest(
                uniform_tree,
                q,
                k=4,
                config=QueryConfig(algorithm="best-first", epsilon=epsilon),
            )
            for q in query_batch
        ]

    results = benchmark(run)
    assert all(len(r) == 4 for r in results)


def test_epsilon_zero_matches_exact(uniform_tree, query_batch):
    for q in query_batch[:5]:
        exact = run_query_batch(uniform_tree, [q], k=4)
        approx = nearest(uniform_tree, q, k=4, config=QueryConfig(epsilon=0.0))
        assert approx.stats.nodes_accessed == pytest.approx(exact.avg_pages)


def test_regenerate_table(quick_scale, capsys):
    (table,) = get_experiment("E9").run(quick_scale)
    with capsys.disabled():
        print("\n" + table.render())
    max_errors = [float(v) for v in table.column("max error")]
    guarantees = [float(v) for v in table.column("guarantee")]
    for err, guarantee in zip(max_errors, guarantees):
        assert err <= guarantee + 1e-9
