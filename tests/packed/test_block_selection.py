"""A window of one may run the numpy block; only the clock can tell.

``packed_nearest_best_first`` sends a hook-free query to the numpy block
of :mod:`repro.packed.batch` when the snapshot is wide enough and the
previous best-first query finished an instant ago
(``kernels._select_block``).  These tests hold that selection to "shows
only in timing":

- a differential gate over the grid data shapes x fanouts on both sides
  of the constant x k x epsilon, warm and cold, on a compiled tree and on
  an shm-attached view: the public entry point must equal the solo loop
  called directly — neighbours, ``float.hex`` distances, the whole
  ``SearchStats`` and the tracker's events in order;
- pins on *which* loop runs, with the module clock monkeypatched;
- the thread and sharded engines over a tie-heavy grid stream at fanout
  113, where the shard workers select the block too.

The clustered sets are the Maneewongvatana & Mount style Gaussian
clusters (``gaussian_clusters``); the grid is 50-unit cells with one
point in five duplicated, so exact distance ties are everywhere.
"""

import itertools
import os
import random

import pytest

from repro.audit.oracle import check_result, exact_neighbors
from repro.core.budget import Budget
from repro.core.config import QueryConfig
from repro.datasets import gaussian_clusters, uniform_points
from repro.geometry.rect import Rect
from repro.obs.trace import Trace
from repro.packed import batch, kernels
from repro.packed.batch import NUMPY_AVAILABLE
from repro.packed.kernels import (
    _begin_query,
    _best_first_2d,
    _best_first_general,
    _heap_to_neighbors,
    packed_nearest_best_first,
)
from repro.rtree.bulk import bulk_load
from repro.service.engine import QueryEngine
from repro.service.options import EngineOptions
from repro.shard.engine import ShardedQueryEngine
from repro.shard.slab import attach_slab, export_slab

pytestmark = pytest.mark.packed

FANOUTS = (8, 16, 32, 48, 64, 96, 113, 227)
N = 1200
_segments = itertools.count()


class Recording:
    def __init__(self):
        self.events = []

    def access(self, node_id, is_leaf):
        self.events.append((node_id, is_leaf))


def _grid_points(n, dim, seed):
    """50-unit grid cells, every fifth point a duplicate of an earlier one."""
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        if points and rng.random() < 0.2:
            points.append(rng.choice(points))
        else:
            points.append(
                tuple(50.0 * rng.randrange(20) for _ in range(dim))
            )
    return points


def _points(kind, n, dim, seed):
    if kind == "uniform":
        return uniform_points(n, seed=seed, dimension=dim)
    if kind == "clustered":
        return gaussian_clusters(n, seed=seed, dimension=dim, clusters=6)
    return _grid_points(n, dim, seed)


def _items(kind, shape, dim, seed=29):
    points = _points(kind, N, dim, seed)
    if shape == "points":
        return [(Rect.from_point(p), i) for i, p in enumerate(points)]
    rng = random.Random(seed + 1)
    return [
        (Rect(p, tuple(c + rng.choice((0.0, 3.0, 40.0)) for c in p)), i)
        for i, p in enumerate(points)
    ]


def _queries(items, dim, seed=31):
    """On-object, face and cell-centre queries plus one far outside."""
    rng = random.Random(seed)
    picks = [items[rng.randrange(len(items))][0].lo for _ in range(2)]
    return picks + [
        tuple(25.0 + 50.0 * rng.randrange(20) for _ in range(dim)),
        (-3000.0,) * dim,
    ]


def _solo(ptree, query, k, epsilon, tracker):
    """The loop the public entry point ran before the selection existed."""
    q, stats, slots, shrink_sq = _begin_query(ptree, query, k, epsilon)
    if ptree.dimension == 2:
        heap = _best_first_2d(
            ptree, q[0], q[1], slots, shrink_sq, tracker, stats
        )
    else:
        heap, _ = _best_first_general(
            ptree, q, slots, shrink_sq, tracker, stats, None, None
        )
    return _heap_to_neighbors(ptree, heap), stats


def _fingerprint(answer, tracker):
    neighbors, stats = answer
    return (
        [nb.payload for nb in neighbors],
        [nb.rect for nb in neighbors],
        [(nb.distance.hex(), nb.distance_squared.hex()) for nb in neighbors],
        stats,
        tracker.events,
    )


def _run(kernel, ptree, query, k, epsilon):
    tracker = Recording()
    return _fingerprint(kernel(ptree, query, k, epsilon, tracker), tracker)


def _public(ptree, query, k, epsilon, tracker):
    return packed_nearest_best_first(
        ptree, query, k=k, epsilon=epsilon, tracker=tracker
    )


def _mean_fanout(ptree):
    starts = ptree.starts
    return starts[-1] / (len(starts) - 1)


# ----------------------------------------------------------------------
# (a) Differential gate: public entry point == the solo loop, always
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("shape", ["points", "boxes"])
@pytest.mark.parametrize("kind", ["uniform", "clustered", "grid"])
def test_selected_kernel_answers_like_the_solo_loop(
    kind, shape, dim, kernel_clock, ran
):
    items = _items(kind, shape, dim)
    queries = _queries(items, dim)
    for fanout in FANOUTS:
        ptree = bulk_load(items, max_entries=fanout).packed()
        ran.clear()
        name = f"repro-shard-test-select-{os.getpid():x}-{next(_segments)}"
        slab = export_slab(ptree, 0, None, name)
        try:
            attached = attach_slab(slab.manifest)
            try:
                for view in (ptree, attached.ptree):
                    for k in (1, 10, 50, N + 7):
                        for epsilon in (0.0, 0.5):
                            for query in queries if k <= 50 else queries[:1]:
                                want = _run(_solo, view, query, k, epsilon)
                                for mode in ("cold", "warm"):
                                    kernel_clock(mode)
                                    got = _run(
                                        _public, view, query, k, epsilon
                                    )
                                    assert got == want, (
                                        kind, shape, dim, fanout, k,
                                        epsilon, query, mode,
                                    )
            finally:
                attached.close()
        finally:
            slab.unlink()
        # Both sides of the constant are in the grid (113 and 227 above).
        wide = _mean_fanout(ptree) >= kernels._BLOCK_MIN_FANOUT
        assert ("block" in ran) == (wide and NUMPY_AVAILABLE), fanout


# ----------------------------------------------------------------------
# (b) Which loop runs
# ----------------------------------------------------------------------
@pytest.fixture
def ran(monkeypatch):
    """Records which loop each query ran: ``block``, ``solo``, ``general``."""
    log = []

    def spy(name, module, attr):
        real = getattr(module, attr)

        def wrapper(*args, **kwargs):
            log.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    spy("block", batch, "_window_of_one")
    spy("solo", kernels, "_best_first_2d")
    spy("general", kernels, "_best_first_general")
    return log


@pytest.fixture(scope="module")
def wide():
    """Fanout 113, mean entries per node above the constant."""
    points = uniform_points(3000, seed=5)
    ptree = bulk_load(
        [(Rect.from_point(p), i) for i, p in enumerate(points)],
        max_entries=113,
    ).packed()
    assert _mean_fanout(ptree) >= kernels._BLOCK_MIN_FANOUT
    return ptree


def test_a_warm_query_at_fanout_113_runs_the_block(wide, ran, kernel_clock):
    kernel_clock("warm")
    packed_nearest_best_first(wide, (500.0, 500.0), k=10)
    assert ran == (["block"] if NUMPY_AVAILABLE else ["solo"])


def test_a_cold_query_runs_the_solo_loop(wide, ran, kernel_clock):
    kernel_clock("cold")
    for _ in range(3):
        packed_nearest_best_first(wide, (500.0, 500.0), k=10)
    assert ran == ["solo"] * 3


def test_back_to_back_queries_warm_the_gate(wide, ran, monkeypatch):
    # The real clock: the first query after a long pause is cold, the
    # ones right behind it warm.
    monkeypatch.setattr(kernels, "_last_done", -1.0e9)
    for _ in range(3):
        packed_nearest_best_first(wide, (500.0, 500.0), k=10)
    assert ran[0] == "solo"
    if NUMPY_AVAILABLE:
        assert "block" in ran[1:]


@pytest.mark.parametrize(
    "hooks", [{"trace": "new"}, {"budget": Budget(max_pages=10**6)}],
    ids=["traced", "budgeted"],
)
def test_a_hooked_query_runs_the_general_loop(wide, ran, kernel_clock, hooks):
    kernel_clock("warm")
    if "trace" in hooks:
        hooks = {"trace": Trace()}
    packed_nearest_best_first(wide, (500.0, 500.0), k=10, **hooks)
    assert ran == ["general"]


def test_a_tree_below_the_constant_runs_the_solo_loop(ran, kernel_clock):
    points = uniform_points(3000, seed=5)
    narrow = bulk_load(
        [(Rect.from_point(p), i) for i, p in enumerate(points)],
        max_entries=64,
    ).packed()
    assert _mean_fanout(narrow) < kernels._BLOCK_MIN_FANOUT
    kernel_clock("warm")
    packed_nearest_best_first(narrow, (500.0, 500.0), k=10)
    assert ran == ["solo"]


def test_without_numpy_the_solo_loop_runs(wide, ran, kernel_clock, monkeypatch):
    monkeypatch.setattr(batch, "_np", None)
    kernel_clock("warm")
    packed_nearest_best_first(wide, (500.0, 500.0), k=10)
    assert ran == ["solo"]


def test_an_n_dimensional_warm_query_runs_the_block(ran, kernel_clock):
    points = uniform_points(3000, seed=6, dimension=3)
    ptree = bulk_load(
        [(Rect.from_point(p), i) for i, p in enumerate(points)],
        max_entries=113,
    ).packed()
    kernel_clock("warm")
    packed_nearest_best_first(ptree, (500.0,) * 3, k=10)
    assert ran == (["block"] if NUMPY_AVAILABLE else ["general"])


def test_the_selection_reads_no_environment_variable(
    wide, kernel_clock, monkeypatch
):
    read = []

    class Watched(dict):
        def __getitem__(self, key):
            read.append(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            read.append(key)
            return super().get(key, default)

        def __contains__(self, key):
            read.append(key)
            return super().__contains__(key)

    monkeypatch.setattr(os, "environ", Watched(os.environ))
    for mode in ("cold", "warm"):
        kernel_clock(mode)
        packed_nearest_best_first(wide, (500.0, 500.0), k=10)
        packed_nearest_best_first(wide, (500.0, 500.0), k=10)
    assert read == []


# ----------------------------------------------------------------------
# (c) The engines, warm and cold, on a tie-heavy grid at fanout 113
# ----------------------------------------------------------------------
def _tie_items():
    """A 40 x 40 unit grid, every cell three times: 4,800 points."""
    return [
        (Rect.from_point((float(x), float(y))), 3 * (40 * x + y) + c)
        for x in range(40)
        for y in range(40)
        for c in range(3)
    ]


def _tie_stream():
    """Grid-aligned, cell-centre and edge queries: ties at every rank."""
    stream = [(float(g), float(g)) for g in range(0, 40, 3)]
    stream += [(g + 0.5, 39.0 - g - 0.5) for g in range(0, 39, 4)]
    stream += [(20.0, 0.0), (0.0, 20.0), (19.5, 19.5), (-2.0, 41.0)]
    return stream


def _bits(results, payloads=True):
    return [
        (
            [nb.payload for nb in r.neighbors] if payloads else None,
            [nb.distance_squared.hex() for nb in r.neighbors],
            r.stats.truncated,
        )
        for r in results
    ]


@pytest.mark.shard
def test_engines_answer_a_tie_stream_alike_warm_and_cold(kernel_clock):
    """Fanout 113 (the audit's backends build at 8, below the constant).

    Thread answers equal each other warm and cold, bit for bit; sharded
    answers (inline, process, per query, windowed) equal each other warm
    and cold, and the thread answers' distances.  Payloads may differ
    across the two engine kinds only where a tie straddles the shard cut
    (the merge breaks it by shard), so those are compared by distance.
    """
    items = _tie_items()
    points = [rect.lo for rect, _ in items]  # payload == index
    cfg = QueryConfig(k=10, algorithm="best-first")
    options = EngineOptions(workers=1, cache_size=0, packed=True)
    stream = _tie_stream()
    tree = bulk_load(items, max_entries=113)
    assert _mean_fanout(tree.packed()) >= kernels._BLOCK_MIN_FANOUT
    thread, sharded = {}, {}
    for mode in ("cold", "warm"):
        kernel_clock(mode)  # before the forks: the workers inherit it
        with QueryEngine(tree, config=cfg, options=options) as engine:
            thread[mode] = [engine.query(q) for q in stream]
        for processes in (False, True):
            with ShardedQueryEngine(
                items=items, shards=2, config=cfg, options=options,
                processes=processes, max_entries=113,
            ) as engine:
                sharded[mode, processes, "query"] = [
                    engine.query(q) for q in stream
                ]
                sharded[mode, processes, "batch"] = engine.query_batch(stream)
    reference = thread["cold"]
    for q, result in zip(stream, reference):
        exact = exact_neighbors(items, q, 10)
        assert check_result(
            result.neighbors, q, 10, exact, "thread", points=points
        ) == []
    assert _bits(thread["warm"]) == _bits(reference)
    first = _bits(sharded["cold", False, "query"])
    for results in sharded.values():
        assert _bits(results) == first
        assert _bits(results, payloads=False) == _bits(reference, False)
