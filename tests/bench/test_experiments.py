"""Smoke tests for every experiment at a tiny scale, plus shape assertions
for the paper's headline claims."""

import pytest

from repro.bench.experiments import EXPERIMENTS, Scale, get_experiment
from repro.errors import InvalidParameterError

TINY = Scale(
    name="tiny",
    sweep_sizes=(128, 512),
    base_size=512,
    build_size=256,
    queries=8,
    k_values=(1, 4),
    buffer_sizes=(0, 16),
)


class TestRegistry:
    def test_all_registered(self):
        assert sorted(EXPERIMENTS) == [
            "E1", "E10", "E11", "E12", "E13", "E14",
            "E2", "E3", "E4", "E5", "E6", "E7",
            "E8",
            "E9",
        ]

    def test_lookup_case_insensitive(self):
        assert get_experiment("e3").id == "E3"

    def test_unknown_id(self):
        with pytest.raises(InvalidParameterError):
            get_experiment("E99")

    def test_scale_presets(self):
        assert set(Scale.presets()) == {"quick", "default", "full"}
        assert Scale.by_name("quick").name == "quick"
        with pytest.raises(InvalidParameterError):
            Scale.by_name("gigantic")


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_every_experiment_runs_and_produces_tables(experiment_id):
    tables = EXPERIMENTS[experiment_id].run(TINY)
    assert tables, f"{experiment_id} produced no tables"
    for table in tables:
        assert table.rows, f"{experiment_id} produced an empty table"
        text = table.render()
        assert experiment_id in text


class TestPaperShapes:
    """The qualitative claims each figure makes must hold at tiny scale."""

    def test_e1_mindist_ordering_never_worse(self):
        for table in get_experiment("E1").run(TINY):
            for md, mmd in zip(
                map(float, table.column("mindist pages")),
                map(float, table.column("minmaxdist pages")),
            ):
                assert md <= mmd + 1e-9

    def test_e2_pages_grow_with_k(self):
        for table in get_experiment("E2").run(TINY):
            pages = [float(v) for v in table.column("DFS pages")]
            assert pages[0] <= pages[-1]

    def test_e3_buffer_reduces_disk_reads(self):
        (table,) = get_experiment("E3").run(TINY)
        reads = [float(v.replace(",", "")) for v in table.column("disk reads")]
        assert reads[-1] < reads[0]

    def test_e5_exhaustive_is_much_worse(self):
        tables = get_experiment("E5").run(TINY)
        for table in tables:
            pages = [float(v.replace(",", "")) for v in table.column("pages")]
            # First row: all pruning. Last row: none (exhaustive).
            assert pages[-1] > 3 * pages[0]

    def test_e6_rtree_touches_far_less_data_than_linear_scan(self):
        # Deterministic comparison (wall-clock at tiny scale is noisy
        # under CPU load): the DFS reads a handful of pages; the scan's
        # work column is the full item count.
        for table in get_experiment("E6").run(TINY):
            rows = dict(
                zip(table.column("algorithm"), table.column("pages/nodes"))
            )
            dfs_pages = float(rows["R-tree DFS (paper)"].replace(",", ""))
            scanned = float(rows["linear scan"].replace(",", ""))
            assert dfs_pages < scanned / 10

    def test_e8_bigger_pages_mean_fewer_accesses(self):
        (table,) = get_experiment("E8").run(TINY)
        pages = [float(v) for v in table.column("pages")]
        assert pages[-1] <= pages[0]
        fanouts = [float(v) for v in table.column("fanout")]
        assert fanouts == sorted(fanouts)

    def test_e11_pages_grow_with_selectivity(self):
        (table,) = get_experiment("E11").run(TINY)
        pages = [float(v.replace(",", "")) for v in table.column("pages (packed)")]
        assert pages == sorted(pages)
        results = [
            float(v.replace(",", "")) for v in table.column("results/query")
        ]
        assert results[-1] > results[0]

    def test_e13_bigger_cache_absorbs_more(self):
        (table,) = get_experiment("E13").run(TINY)
        reads = [float(v.replace(",", "")) for v in table.column("file reads/q")]
        assert reads == sorted(reads, reverse=True)
        logical = [
            float(v.replace(",", "")) for v in table.column("logical pages/q")
        ]
        assert len(set(logical)) == 1  # cache size never changes logic

    def test_e12_optimal_lower_bounds_everything(self):
        (table,) = get_experiment("E12").run(TINY)
        fifo = [float(v) for v in table.column("FIFO misses/q")]
        lru = [float(v) for v in table.column("LRU misses/q")]
        opt = [float(v) for v in table.column("OPT misses/q")]
        for f, l, o in zip(fifo, lru, opt):
            assert o <= l + 1e-9
            assert o <= f + 1e-9

    def test_e14_clustered_sessions_hit_the_cache(self):
        (table,) = get_experiment("E14").run(TINY)
        rows = list(
            zip(table.column("workload"), table.column("hit rate"))
        )
        clustered = [
            float(rate) for workload, rate in rows
            if workload == "clustered/sessions"
        ]
        assert max(clustered) > 0.5
        uniform = [
            float(rate) for workload, rate in rows
            if workload == "uniform/distinct"
        ]
        assert max(uniform) == 0.0  # distinct points cannot hit

    def test_e9_error_within_guarantee_and_pages_shrink(self):
        (table,) = get_experiment("E9").run(TINY)
        max_errors = [float(v) for v in table.column("max error")]
        guarantees = [float(v) for v in table.column("guarantee")]
        for err, guarantee in zip(max_errors, guarantees):
            assert err <= guarantee + 1e-9
        pages = [float(v) for v in table.column("pages")]
        assert pages[-1] <= pages[0]
