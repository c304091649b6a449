"""The batched shard path: columnar wire codec + `query_batch` parity.

`query_batch` is the amortized path the front door's micro-batch
coalescer dispatches through, so its contract is precise: **answers**
(payloads, distances, truncation verdicts, frontier bounds) must be
bit-identical to per-query `query` calls at epsilon 0, while the
**effort counters** legitimately differ — the batch path skips the
shard-level P3 prune, so its `nodes_accessed` reflects the full
fan-out.  Tests here therefore assert answer parity and, past one
shard, never stats equality.
"""

import contextlib
import time

import pytest

from repro.audit.oracle import check_truncated_result
from repro.baselines.linear_scan import linear_scan_items
from repro.core.budget import Budget
from repro.core.config import QueryConfig
from repro.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    ShardLostError,
)
from repro.packed.kernels import run_packed_query
from repro.packed.layout import PackedTree
from repro.rtree.bulk import bulk_load
from repro.service.options import EngineOptions
from repro.shard import ShardedQueryEngine
from repro.shard.wire import (
    flatten_result,
    flatten_stats,
    inflate_result,
    inflate_stats,
)

from tests.shard.conftest import grid_tie_items, tie_queries

pytestmark = pytest.mark.shard

FAST = EngineOptions(workers=1, cache_size=0)


def _answer(result):
    """Everything `query_batch` promises bit-identical (never stats)."""
    return (
        [(n.payload, n.distance, n.distance_squared, n.rect) for n in result.neighbors],
        result.truncated,
        result.truncation_reason,
        result.frontier_distance,
    )


def _kill_worker(engine, index):
    handle = engine._handles[index]
    handle.proc.kill()
    handle.proc.join(timeout=10.0)
    deadline = time.monotonic() + 10.0
    while not handle.dead and time.monotonic() < deadline:
        time.sleep(0.01)
    assert handle.dead
    return handle


class TestWireCodec:
    """`inflate_*(flatten_*(x))` must round-trip bit-for-bit."""

    @pytest.fixture(scope="class")
    def results(self, tie_items):
        ptree = PackedTree.from_tree(bulk_load(list(tie_items), max_entries=8))
        return [
            run_packed_query(ptree, q, QueryConfig(k=k))
            for q in tie_queries()
            for k in (1, 7, 16)
        ]

    def test_result_round_trip_bit_identical(self, results):
        for result in results:
            back = inflate_result(flatten_result(result))
            assert back.neighbors == result.neighbors
            assert back.stats == result.stats

    def test_stats_round_trip_includes_pruning(self, results):
        for result in results:
            back = inflate_stats(flatten_stats(result.stats))
            assert back == result.stats
            assert back.pruning == result.stats.pruning

    def test_truncated_stats_survive_the_wire(self):
        ptree = PackedTree.from_tree(bulk_load(grid_tie_items(), max_entries=8))
        result = run_packed_query(
            ptree, (0.0, 0.0), QueryConfig(k=5, budget=Budget(max_pages=2))
        )
        assert result.stats.truncated
        back = inflate_stats(flatten_stats(result.stats))
        assert back.truncated
        assert back.truncation_reason == result.stats.truncation_reason
        assert back.frontier_sq == result.stats.frontier_sq


class TestBatchParity:
    """Batch answers == per-query answers; stats are allowed to differ.

    One wire, one merge, and a *strict* shard prune: the parity is the
    full answer — payloads and rects included — on the tie-free uniform
    workload and on the adversarial tie workload alike, where grid-
    aligned queries put whole shards exactly on the round-1 bound.
    """

    @pytest.fixture(scope="class")
    def engine(self, tie_items):
        with ShardedQueryEngine(
            items=tie_items, shards=3, options=FAST
        ) as eng:
            yield eng

    @pytest.fixture(scope="class")
    def tie_engines(self, tie_items, engine):
        """The 3-shard process engine plus 2 and 5 shards, both modes."""
        with contextlib.ExitStack() as stack:
            yield [engine] + [
                stack.enter_context(
                    ShardedQueryEngine(
                        items=tie_items, shards=shards, options=FAST,
                        processes=processes,
                    )
                )
                for shards in (2, 5)
                for processes in (False, True)
            ]

    @pytest.mark.parametrize("k", [1, 3, 7, 16])
    def test_uniform_batch_bit_identical_to_per_query(
        self, uniform_items, k
    ):
        queries = [
            (0.12, 0.34), (0.5, 0.5), (0.91, 0.08), (0.33, 0.77),
            (0.05, 0.95), (0.62, 0.41),
        ]
        with ShardedQueryEngine(
            items=uniform_items, shards=3, options=FAST
        ) as engine:
            batch = engine.query_batch(queries, k=k)
            assert len(batch) == len(queries)
            for q, got in zip(queries, batch):
                assert _answer(got) == _answer(engine.query(q, k=k))

    @pytest.mark.parametrize("k", [1, 3, 7, 16])
    def test_tie_batch_matches_distance_sequence(self, tie_engines, k):
        """...and payloads, rects, verdicts: the whole answer, under ties.

        Fails with a ``>=`` shard prune: a shard whose MINDIST *equals*
        the round-1 d_k holds equal-distance objects that win the
        (distance², shard, rank) merge, which the fan-out sees.
        """
        queries = tie_queries()
        for engine in tie_engines:
            batch = engine.query_batch(queries, k=k)
            for q, got in zip(queries, batch):
                assert _answer(got) == _answer(engine.query(q, k=k)), (
                    engine, q
                )

    @pytest.mark.parametrize("processes", [False, True])
    def test_query_is_a_window_of_one(self, tie_items, processes):
        """`query(q)` == `query_batch([q])[0]`; on one shard, stats too.

        With a single shard there is nothing to prune, so the two
        policies do the same work: same kernel, same codec, same merge.
        """
        queries = tie_queries()
        for shards in (1, 3):
            with ShardedQueryEngine(
                items=tie_items, shards=shards, options=FAST,
                processes=processes,
            ) as engine:
                for q in queries:
                    for k in (1, 7):
                        solo = engine.query(q, k=k)
                        (windowed,) = engine.query_batch([q], k=k)
                        assert _answer(windowed) == _answer(solo)
                        if shards == 1:
                            assert (
                                windowed.stats.as_dict()
                                == solo.stats.as_dict()
                            )

    def test_tie_batch_is_deterministic(self, engine):
        queries = tie_queries()
        first = engine.query_batch(queries, k=7)
        second = engine.query_batch(queries, k=7)
        for a, b in zip(first, second):
            assert _answer(a) == _answer(b)

    def test_batch_fans_out_where_per_query_prunes(self, engine):
        """The documented stats asymmetry, pinned: batch effort >= query.

        The batch path sends every point to every live shard (no P3
        shard prune), so its per-point nodes_accessed can only meet or
        exceed the pruned per-query path — if this ever flips, the
        merge is reading the wrong replies.
        """
        queries = tie_queries()
        batch = engine.query_batch(queries, k=3)
        for q, got in zip(queries, batch):
            assert (
                got.stats.nodes_accessed
                >= engine.query(q, k=3).stats.nodes_accessed
            )

    def test_inline_engine_same_wire_shape_and_answers(self, tie_items):
        queries = tie_queries()
        with ShardedQueryEngine(
            items=tie_items, shards=3, options=FAST, processes=False
        ) as inline, ShardedQueryEngine(
            items=tie_items, shards=3, options=FAST
        ) as procs:
            inline_batch = inline.query_batch(queries, k=7)
            procs_batch = procs.query_batch(queries, k=7)
        for a, b in zip(inline_batch, procs_batch):
            assert _answer(a) == _answer(b)

    def test_empty_batch_rejected(self, engine):
        with pytest.raises(InvalidParameterError):
            engine.query_batch([], k=3)


class TestBatchCache:
    def test_cache_hits_skip_the_wire_and_stay_identical(self, tie_items):
        queries = tie_queries()
        with ShardedQueryEngine(
            items=tie_items,
            shards=2,
            options=EngineOptions(workers=1, cache_size=64),
        ) as engine:
            first = engine.query_batch(queries, k=5)
            second = engine.query_batch(queries, k=5)
            stats = engine.stats()
            assert stats.cache_hits == len(queries)
            assert stats.executed == len(queries)
            for a, b in zip(first, second):
                assert _answer(a) == _answer(b)

    def test_mixed_hit_miss_batch_keeps_order(self, tie_items):
        queries = tie_queries()
        warm, cold = queries[: len(queries) // 2], queries
        with ShardedQueryEngine(
            items=tie_items,
            shards=2,
            options=EngineOptions(workers=1, cache_size=64),
        ) as engine:
            engine.query_batch(warm, k=5)
            mixed = engine.query_batch(cold, k=5)
            for q, got in zip(cold, mixed):
                assert _answer(got) == _answer(engine.query(q, k=5))


class TestBatchDegradation:
    def test_dead_shard_degrades_whole_batch_soundly(self, uniform_items):
        queries = [(0.25, 0.25), (0.75, 0.75), (0.5, 0.1), (0.9, 0.4)]
        k = 5
        with ShardedQueryEngine(
            items=uniform_items, shards=3, options=FAST
        ) as engine:
            _kill_worker(engine, 0)
            batch = engine.query_batch(queries, k=k)
            for q, result in zip(queries, batch):
                assert result.truncated
                assert result.truncation_reason == "shard-lost"
                assert result.frontier_distance < float("inf")
                problems = check_truncated_result(
                    result.neighbors,
                    q,
                    k,
                    linear_scan_items(uniform_items, q, k=k),
                    combo="sharded-batch-lost",
                    frontier=result.frontier_distance,
                )
                assert problems == []
            # Degradation is per-point: the whole window counts.
            assert engine.stats().degraded >= len(queries)

    def test_all_workers_dead_raises(self, uniform_items):
        with ShardedQueryEngine(
            items=uniform_items, shards=2, options=FAST
        ) as engine:
            _kill_worker(engine, 0)
            _kill_worker(engine, 1)
            with pytest.raises(ShardLostError):
                engine.query_batch([(0.5, 0.5)], k=3)

    def test_bad_point_is_a_typed_error_not_a_lost_engine(self, uniform_items):
        """A wrong-dimension point fails its window and nothing else.

        The worker ships the ``DimensionMismatchError`` back over the
        pipe; an exception the parent cannot unpickle would kill the
        reader thread and, with it, every shard the window reached.
        """
        with ShardedQueryEngine(
            items=uniform_items, shards=2, options=FAST
        ) as engine:
            with pytest.raises(DimensionMismatchError):
                engine.query_batch([(0.5, 0.5), (0.5, 0.5, 0.5)], k=3)
            assert engine.liveness()["alive"] == [True, True]
            (after,) = engine.query_batch([(0.5, 0.5)], k=3)
            assert not after.truncated
            assert engine.stats().failures == 1
