"""E17 — budget-check overhead and the overload-resilience soak.

The robustness acceptance gate: with no budget attached (the production
default) the public packed DFS entry point must stay within 5% of the
raw kernel floor at the headline 100k/k=10 workload — cancellability
must be free for queries that do not ask for it.  Budgeted queries
run the general instrumented loop and pay a clock charge per node
visit; they are timed for the record but not gated.  The seeded
chaos soak must PASS: every certified answer sound, accounting
conserved, workers drained.
"""

import gc
import time

import pytest

from repro.bench.experiments import get_experiment
from repro.bench.harness import build_tree, kernel_floor, points_as_items
from repro.chaos import ChaosConfig, run_soak
from repro.core.budget import Budget
from repro.datasets.queries import query_points_uniform
from repro.datasets.synthetic import uniform_points
from repro.packed.kernels import packed_nearest_dfs
from repro.packed.layout import PackedTree
from repro.storage.pager import PageModel

HEADLINE_N = 100_000
HEADLINE_K = 10
HEADLINE_QUERIES = 100
HEADLINE_PAGE_SIZE = 4096

LOOSE = Budget(max_pages=1_000_000_000)


@pytest.fixture(scope="module")
def headline_packed():
    points = uniform_points(HEADLINE_N, seed=170)
    tree = build_tree(
        points_as_items(points),
        page_model=PageModel(page_size=HEADLINE_PAGE_SIZE),
    )
    return PackedTree.from_tree(tree)


@pytest.fixture(scope="module")
def headline_queries():
    return query_points_uniform(HEADLINE_QUERIES, seed=171)


def test_e17_unbudgeted_benchmark(benchmark, headline_packed, headline_queries):
    """Time the budget=None public entry point over the headline batch."""

    def run():
        return [
            packed_nearest_dfs(headline_packed, q, k=HEADLINE_K)
            for q in headline_queries
        ]

    results = benchmark(run)
    assert len(results) == len(headline_queries)


def test_e17_budgeted_benchmark(benchmark, headline_packed, headline_queries):
    """Time budgeted queries (loose page budget) for the record."""

    def run():
        return [
            packed_nearest_dfs(headline_packed, q, k=HEADLINE_K, budget=LOOSE)
            for q in headline_queries
        ]

    results = benchmark(run)
    assert len(results) == len(headline_queries)


def test_e17_unbudgeted_overhead_100k(headline_packed, headline_queries):
    """The acceptance gate: no budget means no budget cost.

    Floor and public runs are interleaved so CPU noise lands on both
    sides equally.  The strict <5% budget is enforced by
    ``python -m repro.bench resilience`` in a clean process; inside a
    pytest session the same 1.1x flake-tolerant bound as CI applies.
    A loose budget must also not change the answer — the budgeted
    kernels truncate state, never results, when nothing is exhausted.
    """
    for q in headline_queries[:8]:
        plain_nb, plain_stats = packed_nearest_dfs(
            headline_packed, q, k=HEADLINE_K
        )
        capped_nb, capped_stats = packed_nearest_dfs(
            headline_packed, q, k=HEADLINE_K, budget=LOOSE
        )
        assert [nb.payload for nb in plain_nb] == [
            nb.payload for nb in capped_nb
        ]
        assert not capped_stats.truncated
        assert capped_stats.nodes_accessed == plain_stats.nodes_accessed

    floor_times = []
    public_times = []
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(9):
            start = time.perf_counter()
            kernel_floor(headline_packed, headline_queries, HEADLINE_K)
            floor_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            for q in headline_queries:
                packed_nearest_dfs(headline_packed, q, k=HEADLINE_K)
            public_times.append(time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()

    floor_ms = min(floor_times) * 1e3 / HEADLINE_QUERIES
    public_ms = min(public_times) * 1e3 / HEADLINE_QUERIES
    overhead = public_ms / floor_ms
    print(
        f"\nE17 headline: kernel floor {floor_ms:.4f} ms/q, "
        f"public budget=None {public_ms:.4f} ms/q, ratio {overhead:.3f}x"
    )
    assert overhead <= 1.1, (
        f"unbudgeted overhead {overhead:.3f}x exceeds the "
        f"flake-tolerant 1.1x bound "
        f"(floor {floor_ms:.4f} ms/q vs public {public_ms:.4f} ms/q)"
    )


def test_e17_soak_passes():
    """A short seeded soak must certify, conserve and drain."""
    report = run_soak(ChaosConfig(seed=17, queries=600))
    assert report.passed, report.render()
    assert report.oracle_checked == report.served
    assert report.served > 0 and report.shed > 0


def test_regenerate_table(quick_scale, capsys):
    overhead, soak = get_experiment("E17").run(quick_scale)
    with capsys.disabled():
        print("\n" + overhead.render())
        print("\n" + soak.render())
    ratios = [float(v) for v in overhead.column("vs kernel")]
    # Row order: kernel only (1.0 by construction), public budget=None
    # (noise-level at quick scale), public with a loose budget (pays a
    # clock charge per node visit).
    assert ratios[0] == pytest.approx(1.0)
    assert ratios[1] < 1.5  # generous: tiny batches are noisy
    assert ratios[2] > ratios[1] * 0.5  # sanity: parsed the right column
    counters = dict(zip(soak.column("counter"), soak.column("value")))
    assert counters["passed"] == "1"
    assert counters["invariant violations"] == "0"
