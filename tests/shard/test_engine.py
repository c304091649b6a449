"""ShardedQueryEngine correctness: merge fidelity, options, lifecycle.

The headline property: scatter-gather across worker processes is
*observationally identical* to the single-tree packed kernel on the
distance sequence (payloads may differ under exact ties — the merge
breaks them by ``(distance², shard, within-shard rank)``, the kernels by
accept order), and the process-hosted engine is bit-identical to the
inline one, payloads included, because partitioning and merging are
deterministic.
"""

import glob
import os

import pytest

from repro.baselines.linear_scan import linear_scan_items
from repro.audit.oracle import check_result, check_truncated_result
from repro.core.budget import Budget
from repro.core.config import QueryConfig
from repro.core.metrics import mindist_squared
from repro.core.neighbors import Neighbor
from repro.core.pruning import PruningConfig
from repro.core.query import NNResult
from repro.core.stats import SearchStats
from repro.errors import InvalidParameterError
from repro.geometry.rect import Rect
from repro.packed.kernels import run_packed_query
from repro.packed.layout import PackedTree
from repro.rtree.bulk import bulk_load
from repro.service.engine import QueryEngine
from repro.service.options import EngineOptions
from repro.service.protocol import Engine, EngineSnapshot
from repro.shard import ShardedQueryEngine
from repro.shard.wire import flatten_result

from tests.shard.conftest import grid_tie_items, tie_queries

pytestmark = pytest.mark.shard

FAST = EngineOptions(workers=1, cache_size=0)


def _pairs(result):
    return [(n.payload, n.distance) for n in result.neighbors]


@pytest.fixture(scope="module")
def tie_engine(tie_items):
    with ShardedQueryEngine(items=tie_items, shards=3, options=FAST) as eng:
        yield eng


@pytest.fixture(scope="module")
def tie_packed(tie_items):
    return PackedTree.from_tree(bulk_load(list(tie_items), max_entries=8))


class TestTieHeavyMerge:
    @pytest.mark.parametrize("k", [1, 3, 7, 16])
    def test_distance_sequence_bit_identical_to_single_tree(
        self, tie_engine, tie_packed, k
    ):
        """Cross-shard merge == single packed tree, exact float equality.

        Distances are computed from the same coordinates by the same
        kernels on both sides, so nothing weaker than ``==`` (no
        tolerance) is acceptable even with duplicates straddling every
        shard boundary.
        """
        cfg = QueryConfig(k=k)
        for q in tie_queries():
            merged = tie_engine.query(q, config=cfg)
            single = run_packed_query(tie_packed, q, cfg)
            assert [n.distance for n in merged.neighbors] == [
                n.distance for n in single.neighbors
            ]
            assert len(merged.neighbors) == k

    @pytest.mark.parametrize("k", [3, 16])
    def test_oracle_clean_on_ties(self, tie_engine, tie_items, k):
        for q in tie_queries():
            exact = linear_scan_items(tie_items, q, k=k)
            result = tie_engine.query(q, k=k)
            assert (
                check_result(result.neighbors, q, k, exact, combo="sharded")
                == []
            )

    def test_process_and_inline_bit_identical(self, tie_items, tie_engine):
        """Same plan, same kernels, same merge — payloads included."""
        with ShardedQueryEngine(
            items=tie_items, shards=3, options=FAST, processes=False
        ) as inline:
            for q in tie_queries():
                for k in (1, 5, 12):
                    assert _pairs(inline.query(q, k=k)) == _pairs(
                        tie_engine.query(q, k=k)
                    )


class TestConfigSemantics:
    def test_epsilon_band_respected(self, uniform_items):
        eps = 0.5
        cfg = QueryConfig(k=5, epsilon=eps)
        with ShardedQueryEngine(
            items=uniform_items, shards=3, options=FAST
        ) as engine:
            for q in [(0.0, 0.0), (400.0, 600.0), (999.0, 999.0)]:
                exact = linear_scan_items(uniform_items, q, k=5)
                result = engine.query(q, config=cfg)
                assert (
                    check_result(
                        result.neighbors,
                        q,
                        5,
                        exact,
                        combo="sharded-eps",
                        epsilon=eps,
                    )
                    == []
                )

    def test_page_budget_truncates_soundly(self, uniform_items):
        cfg = QueryConfig(k=8, budget=Budget(max_pages=2))
        with ShardedQueryEngine(
            items=uniform_items, shards=3, options=FAST, processes=False
        ) as engine:
            truncated_seen = 0
            for q in [(0.0, 0.0), (500.0, 500.0), (999.0, 0.0)]:
                exact = linear_scan_items(uniform_items, q, k=8)
                result = engine.query(q, config=cfg)
                if result.truncated:
                    truncated_seen += 1
                    assert (
                        check_truncated_result(
                            result.neighbors,
                            q,
                            8,
                            exact,
                            combo="sharded-budget",
                            frontier=result.frontier_distance,
                        )
                        == []
                    )
            assert truncated_seen > 0, "2-page budget never truncated?"

    def test_truncated_shard_beside_a_pruned_one_stays_sound(self):
        """Round 1 completes, a round-2 shard truncates, a third is pruned.

        Hand-placed so a 3-page budget does all three at once: shard A's
        nearest leaf answers k=4 by itself (2 pages, bound 0.5²), shard
        B's three tall columns sit 0.2 away and need a fourth page, and
        shard C is a thousand units off.  The merged frontier then has
        to cover what B did not read *and* what was never asked of C.
        """
        points = [(0.2 * i, 0.0) for i in range(8)]
        points += [(-50.0 - 0.01 * i, 0.0) for i in range(8)]
        points += [(-100.0 - 0.01 * i, 0.0) for i in range(8)]
        points += [
            (x, -35.0 + 10.0 * j) for x in (1.5, 1.6, 1.7) for j in range(8)
        ]
        points += [(1000.0 + i, float(i % 5)) for i in range(24)]
        items = [(Rect.from_point(p), i) for i, p in enumerate(points)]
        q, k = (1.3, 0.0), 4
        cfg = QueryConfig(k=k, budget=Budget(max_pages=3))
        with ShardedQueryEngine(
            items=items, shards=3, options=FAST, processes=False
        ) as engine:
            result = engine.query(q, config=cfg)
            stats = engine.stats()
            assert (stats.shards_queried, stats.shards_pruned) == (2, 1)
            assert result.truncated
            assert result.truncation_reason == "pages"
            far = engine._handles[2].mbr
            assert result.stats.frontier_sq < mindist_squared(q, far)
            assert (
                check_truncated_result(
                    result.neighbors,
                    q,
                    k,
                    linear_scan_items(items, q, k=k),
                    combo="sharded-budget-pruned",
                    frontier=result.frontier_distance,
                )
                == []
            )

    def test_pruning_config_p3_off_disables_shard_pruning(self, uniform_items):
        cfg = QueryConfig(k=3, pruning=PruningConfig(True, True, False))
        with ShardedQueryEngine(
            items=uniform_items, shards=4, options=FAST
        ) as engine:
            engine.query((500.0, 500.0), config=cfg)
            assert engine.stats().shards_pruned == 0
            engine.query((500.0, 500.0), k=3)
            assert engine.stats().shards_pruned > 0

    def test_object_distance_rejected(self, uniform_items):
        with ShardedQueryEngine(
            items=uniform_items, shards=2, options=FAST, processes=False
        ) as engine:
            with pytest.raises(InvalidParameterError):
                engine.query(
                    (0.0, 0.0),
                    config=QueryConfig(
                        k=1, object_distance_sq=lambda q, p, r: 0.0
                    ),
                )


def _reply(distances_sq, **stats):
    """A hand-built `FlatResult`: point neighbors at the given distances."""
    neighbors = [
        Neighbor(
            payload=rank,
            rect=Rect.from_point((float(rank), 0.0)),
            distance=d ** 0.5,
            distance_squared=d,
        )
        for rank, d in enumerate(distances_sq)
    ]
    return flatten_result(
        NNResult(neighbors=neighbors, stats=SearchStats(**stats))
    )


class TestMergeFrontier:
    """`_merge` on hand-built replies: who may bound the merged frontier.

    frontier² = min(truncated shards' frontier², lost shards' MINDIST²,
    pruned shards' MINDIST²) — and pruned shards count only when
    something else already made the answer incomplete.
    """

    CFG = QueryConfig(k=3)
    BUDGETED = _reply(
        [1.0, 2.0], truncated=True, truncation_reason="pages",
        frontier_sq=9.0,
    )

    @pytest.fixture(scope="class")
    def engine(self, uniform_items):
        with ShardedQueryEngine(
            items=uniform_items[:8], shards=1, options=FAST, processes=False
        ) as eng:
            yield eng

    def test_pruned_shard_lowers_a_truncated_frontier(self, engine):
        merged = engine._merge(self.CFG, [(0, self.BUDGETED)], [], [4.0])
        assert merged.truncated
        assert merged.truncation_reason == "pages"
        assert merged.stats.frontier_sq == 4.0

    def test_lost_shard_wins_the_reason_and_the_min(self, engine):
        merged = engine._merge(self.CFG, [(0, self.BUDGETED)], [1.0], [4.0])
        assert merged.truncated
        assert merged.truncation_reason == "shard-lost"
        assert merged.stats.frontier_sq == 1.0

    def test_pruned_shards_alone_leave_the_answer_exact(self, engine):
        merged = engine._merge(
            self.CFG,
            [(1, _reply([2.0, 5.0])), (0, _reply([2.0, 3.0]))],
            [],
            [4.0],
        )
        assert not merged.truncated
        assert merged.truncation_reason == ""
        assert merged.stats.frontier_sq == float("inf")
        # (distance², shard, rank): shard 0's 2.0 beats shard 1's.
        assert [
            (n.distance_squared, n.rect.lo[0]) for n in merged.neighbors
        ] == [(2.0, 0.0), (2.0, 0.0), (3.0, 1.0)]
        assert merged.stats.nodes_accessed == 0


class TestLatencyAccounting:
    """One latency sample per answered query, whichever door it used."""

    POINTS = [(100.0 * i, 50.0 * i) for i in range(8)]

    def _mix(self, engine):
        engine.query(self.POINTS[0], k=3)
        engine.query_batch(self.POINTS, k=3)  # 1 hit + 7 misses
        engine.query(self.POINTS[5], k=3)  # hit
        engine.query_batch(self.POINTS[:3], k=3)  # all hits
        return engine.stats()

    @pytest.mark.parametrize("processes", [False, True])
    def test_sharded_window_records_a_sample_per_point(
        self, uniform_items, processes
    ):
        with ShardedQueryEngine(
            items=uniform_items,
            shards=2,
            options=EngineOptions(workers=1, cache_size=64),
            processes=processes,
        ) as engine:
            stats = self._mix(engine)
            assert stats.queries == 13 and stats.cache_hits == 5
            assert engine._latency.count == stats.queries

    def test_thread_engine_is_the_reference(self, uniform_items):
        tree = bulk_load(list(uniform_items), max_entries=8)
        options = EngineOptions(workers=1, cache_size=64, packed=True)
        with QueryEngine(tree, options=options) as engine:
            stats = self._mix(engine)
            assert stats.queries == 13
            assert engine._latency.count == stats.queries


class TestLifecycle:
    def test_republish_swaps_snapshot_and_unlinks_old_epoch(
        self, uniform_items
    ):
        half = uniform_items[: len(uniform_items) // 2]
        engine = ShardedQueryEngine(items=half, shards=2, options=FAST)
        prefix = engine.name_prefix
        try:
            first_epoch = engine.snapshot().epoch
            before = engine.query((500.0, 500.0), k=3)
            new_epoch = engine.republish(items=uniform_items)
            assert new_epoch == first_epoch + 1
            assert engine.snapshot().size == len(uniform_items)
            exact = linear_scan_items(uniform_items, (500.0, 500.0), k=3)
            after = engine.query((500.0, 500.0), k=3)
            assert [n.distance for n in after.neighbors] == [
                n.distance for n in exact
            ]
            assert before is not after
            if os.path.isdir("/dev/shm"):
                live = glob.glob(f"/dev/shm/{prefix}*")
                assert live, "republish left no segments?"
                assert all(f"-e{new_epoch}-" in seg for seg in live)
        finally:
            engine.close()
        if os.path.isdir("/dev/shm"):
            assert glob.glob(f"/dev/shm/{prefix}*") == []

    def test_close_is_idempotent_and_query_after_close_raises(
        self, uniform_items
    ):
        engine = ShardedQueryEngine(items=uniform_items, shards=2, options=FAST)
        engine.close()
        engine.close()
        with pytest.raises(InvalidParameterError):
            engine.query((0.0, 0.0), k=1)

    def test_constructor_validation(self, uniform_items):
        with pytest.raises(InvalidParameterError):
            ShardedQueryEngine()
        with pytest.raises(InvalidParameterError):
            ShardedQueryEngine(items=uniform_items, shards=0)

    def test_result_cache_serves_repeats(self, uniform_items):
        with ShardedQueryEngine(
            items=uniform_items,
            shards=2,
            options=EngineOptions(workers=1, cache_size=16),
        ) as engine:
            a = engine.query((1.0, 2.0), k=4)
            b = engine.query((1.0, 2.0), k=4)
            assert b is a
            assert engine.stats().cache_hits == 1


class TestProtocol:
    def test_sharded_engine_satisfies_engine_protocol(self, uniform_items):
        with ShardedQueryEngine(
            items=uniform_items, shards=2, options=FAST, processes=False
        ) as engine:
            assert isinstance(engine, Engine)
            snap = engine.snapshot()
            assert isinstance(snap, EngineSnapshot)
            assert snap.backend == "sharded"
            assert snap.size == len(uniform_items)
            assert snap.detail["shards"] == 2
            fut = engine.submit((3.0, 4.0), k=2)
            assert len(fut.result().neighbors) == 2

    def test_resilient_engine_wraps_sharded_backend(self, uniform_items):
        from repro.service.resilience import ResilientEngine

        inner = ShardedQueryEngine(
            items=uniform_items, shards=2, options=FAST, processes=False
        )
        with ResilientEngine(engine=inner, workers=1) as resilient:
            snap = resilient.snapshot()
            assert snap.backend == "resilient+sharded"
            direct = inner.query((250.0, 250.0), k=3)
            served = resilient.query((250.0, 250.0), k=3)
            assert _pairs(served.result) == _pairs(direct)
