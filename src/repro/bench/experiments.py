"""The paper's evaluation, experiment by experiment (E1-E14).

Each experiment owns one figure or table of the SIGMOD'95 evaluation (see
the index in DESIGN.md section 4).  Experiments are pure functions of a
:class:`Scale`, deterministic given the fixed seeds below, and return
:class:`~repro.bench.tables.Table` objects ready to print or paste into
EXPERIMENTS.md.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.baselines.gridfile import GridIndex
from repro.baselines.kdtree import KdTree
from repro.baselines.quadtree import QuadTree
from repro.baselines.linear_scan import linear_scan_items
from repro.bench.harness import (
    build_tree,
    points_as_items,
    run_query_batch,
)
from repro.bench.tables import Table
from repro.core.config import QueryConfig
from repro.core.pruning import PruningConfig
from repro.datasets.queries import query_points_uniform
from repro.datasets.roads import road_segments
from repro.datasets.synthetic import gaussian_clusters, uniform_points
from repro.errors import InvalidParameterError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment
from repro.storage.buffer import LruBufferPool

__all__ = ["EXPERIMENTS", "Experiment", "Scale", "get_experiment"]

_DATA_SEED = 1995
_QUERY_SEED = 2600


@dataclass(frozen=True)
class Scale:
    """Workload sizing preset.

    ``quick`` keeps the full pipeline under a few seconds per experiment
    (used by the pytest benchmarks); ``default`` reproduces the paper's
    shapes faithfully; ``full`` pushes sizes for smoother curves.
    """

    name: str
    #: Dataset sizes for the size sweeps (E1, E4).
    sweep_sizes: Tuple[int, ...]
    #: Dataset size for the fixed-size experiments (E2, E3, E5, E6).
    base_size: int
    #: Dataset size for the dynamic-build ablation (E7).
    build_size: int
    #: Queries per data point.
    queries: int
    #: k values for the k sweep (E2).
    k_values: Tuple[int, ...]
    #: LRU buffer capacities for E3.
    buffer_sizes: Tuple[int, ...]

    @classmethod
    def presets(cls) -> Dict[str, "Scale"]:
        """The three named presets."""
        return {
            "quick": cls(
                name="quick",
                sweep_sizes=(256, 1024, 4096),
                base_size=4096,
                build_size=2048,
                queries=20,
                k_values=(1, 4, 8),
                buffer_sizes=(0, 8, 64),
            ),
            "default": cls(
                name="default",
                sweep_sizes=(2048, 8192, 32768),
                base_size=32768,
                build_size=8192,
                queries=100,
                k_values=(1, 2, 4, 8, 16, 25),
                buffer_sizes=(0, 4, 16, 64, 256),
            ),
            "full": cls(
                name="full",
                sweep_sizes=(2048, 8192, 32768, 131072),
                base_size=65536,
                build_size=16384,
                queries=400,
                k_values=(1, 2, 4, 8, 12, 16, 20, 25),
                buffer_sizes=(0, 2, 4, 8, 16, 32, 64, 128, 256),
            ),
        }

    @classmethod
    def by_name(cls, name: str) -> "Scale":
        presets = cls.presets()
        try:
            return presets[name]
        except KeyError:
            raise InvalidParameterError(
                f"unknown scale {name!r}; expected one of {sorted(presets)}"
            ) from None


@dataclass(frozen=True)
class Experiment:
    """One reproducible experiment: id, provenance and a runner."""

    id: str
    title: str
    paper_ref: str
    description: str
    run: Callable[[Scale], List[Table]]


# ----------------------------------------------------------------------
# Workload helpers
# ----------------------------------------------------------------------
def segment_distance_sq(query: Point, payload: Any, rect: Rect) -> float:
    """Exact squared point-to-segment distance (the TIGER object hook)."""
    segment: Segment = payload
    return segment.distance_squared_to(query)


def _uniform_items(n: int, seed: int = _DATA_SEED) -> List[Tuple[Rect, int]]:
    return points_as_items(uniform_points(n, seed=seed))


def _clustered_items(n: int, seed: int = _DATA_SEED) -> List[Tuple[Rect, int]]:
    return points_as_items(gaussian_clusters(n, seed=seed))


def _road_items(n: int, seed: int = _DATA_SEED) -> List[Tuple[Rect, Segment]]:
    return [(seg.mbr(), seg) for seg in road_segments(n, seed=seed)]


_DATASETS: Dict[str, Callable[[int], list]] = {
    "uniform": _uniform_items,
    "clustered": _clustered_items,
    "roads": _road_items,
}


def _object_hook(dataset: str):
    return segment_distance_sq if dataset == "roads" else None


# ----------------------------------------------------------------------
# E1 — MINDIST vs MINMAXDIST ordering (paper Fig. "ordering comparison")
# ----------------------------------------------------------------------
def _run_e1(scale: Scale) -> List[Table]:
    tables = []
    for dataset in ("uniform", "roads"):
        table = Table(
            f"E1 ({dataset}): ABL ordering, pages accessed per 1-NN query",
            ["n", "mindist pages", "minmaxdist pages", "ratio"],
            caption=(
                "DFS branch-and-bound, k=1, no buffer; "
                f"{scale.queries} uniform queries per row."
            ),
        )
        for n in scale.sweep_sizes:
            items = _DATASETS[dataset](n)
            tree = build_tree(items, method="bulk")
            queries = query_points_uniform(scale.queries, seed=_QUERY_SEED)
            results = {}
            for ordering in ("mindist", "minmaxdist"):
                results[ordering] = run_query_batch(
                    tree,
                    queries,
                    k=1,
                    ordering=ordering,
                    object_distance_sq=_object_hook(dataset),
                )
            ratio = (
                results["minmaxdist"].avg_pages / results["mindist"].avg_pages
                if results["mindist"].avg_pages
                else 0.0
            )
            table.add_row(
                n,
                results["mindist"].avg_pages,
                results["minmaxdist"].avg_pages,
                ratio,
            )
        tables.append(table)
    return tables


# ----------------------------------------------------------------------
# E2 — pages accessed vs number of neighbors k (paper Fig. "k sweep")
# ----------------------------------------------------------------------
def _run_e2(scale: Scale) -> List[Table]:
    tables = []
    for dataset in ("uniform", "roads"):
        items = _DATASETS[dataset](scale.base_size)
        tree = build_tree(items, method="bulk")
        queries = query_points_uniform(scale.queries, seed=_QUERY_SEED)
        table = Table(
            f"E2 ({dataset}): pages accessed per query vs k "
            f"(n={scale.base_size})",
            ["k", "DFS pages", "best-first pages", "DFS objects examined"],
            caption=f"{scale.queries} uniform queries per row; no buffer.",
        )
        for k in scale.k_values:
            dfs = run_query_batch(
                tree, queries, k=k, algorithm="dfs",
                object_distance_sq=_object_hook(dataset),
            )
            bf = run_query_batch(
                tree, queries, k=k, algorithm="best-first",
                object_distance_sq=_object_hook(dataset),
            )
            table.add_row(k, dfs.avg_pages, bf.avg_pages, dfs.avg_objects_examined)
        tables.append(table)
    return tables


# ----------------------------------------------------------------------
# E3 — effect of an LRU buffer (paper Fig. "buffering")
# ----------------------------------------------------------------------
def _run_e3(scale: Scale) -> List[Table]:
    items = _road_items(scale.base_size)
    tree = build_tree(items, method="bulk")
    # Twice the usual batch: buffering only pays off across many queries.
    queries = query_points_uniform(2 * scale.queries, seed=_QUERY_SEED)
    table = Table(
        f"E3 (roads): disk reads per query vs LRU buffer size "
        f"(n={scale.base_size}, k=4)",
        ["buffer pages", "logical pages", "disk reads", "hit ratio"],
        caption=(
            f"{len(queries)} consecutive queries stream through one shared "
            "buffer; logical accesses are identical across rows."
        ),
    )
    for capacity in scale.buffer_sizes:
        pool = LruBufferPool(capacity)
        batch = run_query_batch(
            tree,
            queries,
            k=4,
            shared_tracker=pool,
            object_distance_sq=segment_distance_sq,
        )
        table.add_row(
            capacity, batch.avg_pages, batch.avg_disk_reads, batch.buffer_hit_ratio
        )
    return [table]


# ----------------------------------------------------------------------
# E4 — scaling with dataset size (paper Fig. "size scaling")
# ----------------------------------------------------------------------
def _run_e4(scale: Scale) -> List[Table]:
    table = Table(
        "E4 (uniform): pages and time per query vs dataset size",
        ["n", "k=1 pages", "k=1 ms", "k=10 pages", "k=10 ms", "tree height"],
        caption=(
            f"DFS, MINDIST ordering, {scale.queries} uniform queries per row."
        ),
    )
    for n in scale.sweep_sizes:
        items = _uniform_items(n)
        tree = build_tree(items, method="bulk")
        queries = query_points_uniform(scale.queries, seed=_QUERY_SEED)
        one = run_query_batch(tree, queries, k=1)
        ten = run_query_batch(tree, queries, k=10)
        table.add_row(
            n, one.avg_pages, one.avg_time_ms, ten.avg_pages, ten.avg_time_ms,
            tree.height,
        )
    return [table]


# ----------------------------------------------------------------------
# E5 — pruning strategy ablation (paper Sec. 4 discussion, promoted)
# ----------------------------------------------------------------------
_PRUNING_VARIANTS: Tuple[Tuple[str, PruningConfig], ...] = (
    ("P1+P2+P3 (paper)", PruningConfig.all()),
    ("P3 only", PruningConfig.only_p3()),
    ("P1+P3", PruningConfig(use_p1=True, use_p2=False, use_p3=True)),
    ("P2+P3", PruningConfig(use_p1=False, use_p2=True, use_p3=True)),
    ("none (exhaustive)", PruningConfig.none()),
)


def _run_e5(scale: Scale) -> List[Table]:
    tables = []
    # The exhaustive row touches every page; keep n moderate.
    n = max(1024, scale.base_size // 2)
    for dataset in ("uniform", "clustered"):
        items = _DATASETS[dataset](n)
        tree = build_tree(items, method="bulk")
        queries = query_points_uniform(scale.queries, seed=_QUERY_SEED)
        for k in (1, 10):
            table = Table(
                f"E5 ({dataset}, k={k}): pruning ablation (n={n})",
                ["strategy", "pages", "P1 pruned", "P3 pruned", "objects"],
                caption=(
                    "P1/P2 auto-disable for k>1 (MINMAXDIST certifies only "
                    "one object per MBR)."
                ),
            )
            for label, config in _PRUNING_VARIANTS:
                batch = run_query_batch(tree, queries, k=k, pruning=config)
                table.add_row(
                    label,
                    batch.avg_pages,
                    batch.avg_pruned_p1,
                    batch.avg_pruned_p3,
                    batch.avg_objects_examined,
                )
            tables.append(table)
    return tables


# ----------------------------------------------------------------------
# E6 — algorithm comparison (paper Table: NN methods)
# ----------------------------------------------------------------------
def _run_e6(scale: Scale) -> List[Table]:
    tables = []
    n = scale.base_size // 2
    for dataset in ("uniform", "clustered", "roads"):
        items = _DATASETS[dataset](n)
        tree = build_tree(items, method="bulk")
        hook = _object_hook(dataset)
        queries = query_points_uniform(scale.queries, seed=_QUERY_SEED)

        # kd-tree baseline indexes representative points (segment midpoints
        # for roads — kd-trees cannot index extended objects, which is the
        # limitation the paper's R-tree algorithm lifts).
        if dataset == "roads":
            kd_items = [(seg.midpoint(), seg) for _, seg in items]
        else:
            kd_items = [(rect.lo, payload) for rect, payload in items]
        kd = KdTree(kd_items)
        grid = GridIndex(kd_items)
        quad = QuadTree(kd_items)

        table = Table(
            f"E6 ({dataset}): algorithm comparison (n={n})",
            ["algorithm", "k", "pages/nodes", "time ms"],
            caption=(
                f"{scale.queries} uniform queries. Pages for R-tree "
                "algorithms, visited nodes for the kd-tree, cells for the "
                "grid, item count for linear scan. kd-tree and grid "
                "distances use representative points (approximate for roads)."
            ),
        )
        for k in (1, 4, 8):
            dfs = run_query_batch(
                tree, queries, k=k, algorithm="dfs", object_distance_sq=hook
            )
            bf = run_query_batch(
                tree, queries, k=k, algorithm="best-first", object_distance_sq=hook
            )
            table.add_row("R-tree DFS (paper)", k, dfs.avg_pages, dfs.avg_time_ms)
            table.add_row("R-tree best-first", k, bf.avg_pages, bf.avg_time_ms)

            kd_nodes = 0
            start = time.perf_counter()
            for q in queries:
                _, kd_stats = kd.nearest(q, k=k)
                kd_nodes += kd_stats.nodes_visited
            kd_ms = 1000.0 * (time.perf_counter() - start) / len(queries)
            table.add_row("kd-tree FBF", k, kd_nodes / len(queries), kd_ms)

            grid_cells = 0
            start = time.perf_counter()
            for q in queries:
                _, grid_stats = grid.nearest(q, k=k)
                grid_cells += grid_stats.cells_examined
            grid_ms = 1000.0 * (time.perf_counter() - start) / len(queries)
            table.add_row("fixed grid", k, grid_cells / len(queries), grid_ms)

            quad_nodes = 0
            start = time.perf_counter()
            for q in queries:
                _, quad_stats = quad.nearest(q, k=k)
                quad_nodes += quad_stats.nodes_visited
            quad_ms = 1000.0 * (time.perf_counter() - start) / len(queries)
            table.add_row("quadtree", k, quad_nodes / len(queries), quad_ms)

            start = time.perf_counter()
            for q in queries:
                linear_scan_items(items, q, k=k, object_distance_sq=hook)
            lin_ms = 1000.0 * (time.perf_counter() - start) / len(queries)
            table.add_row("linear scan", k, float(n), lin_ms)
        tables.append(table)
    return tables


# ----------------------------------------------------------------------
# E7 — index construction ablation (supporting table)
# ----------------------------------------------------------------------
def _run_e7(scale: Scale) -> List[Table]:
    n = scale.build_size
    variants = (
        ("linear split", dict(method="insert", split="linear")),
        ("quadratic split", dict(method="insert", split="quadratic")),
        ("R* split", dict(method="insert", split="rstar")),
        (
            "R* split + reinsert",
            dict(method="insert", split="rstar", forced_reinsert=True),
        ),
        ("STR bulk load", dict(method="bulk")),
        ("Hilbert bulk load", dict(method="hilbert")),
        ("Morton bulk load", dict(method="morton")),
    )
    tables = []
    for dataset in ("uniform", "roads"):
        items = _DATASETS[dataset](n)
        queries = query_points_uniform(scale.queries, seed=_QUERY_SEED)
        table = Table(
            f"E7 ({dataset}): split strategy ablation (n={n})",
            ["variant", "build s", "nodes", "height", "1-NN pages", "4-NN pages"],
            caption="Dynamic builds insert one item at a time; page model 1 KiB.",
        )
        for label, kwargs in variants:
            start = time.perf_counter()
            tree = build_tree(items, **kwargs)
            build_s = time.perf_counter() - start
            one = run_query_batch(
                tree, queries, k=1, object_distance_sq=_object_hook(dataset)
            )
            four = run_query_batch(
                tree, queries, k=4, object_distance_sq=_object_hook(dataset)
            )
            table.add_row(
                label, build_s, tree.node_count, tree.height,
                one.avg_pages, four.avg_pages,
            )
        tables.append(table)
    return tables


# ----------------------------------------------------------------------
# E8 — page size ablation (branching-factor discussion, promoted)
# ----------------------------------------------------------------------
def _run_e8(scale: Scale) -> List[Table]:
    from repro.storage.cost import DiskCostModel
    from repro.storage.pager import PageModel

    n = scale.base_size
    items = _uniform_items(n)
    queries = query_points_uniform(scale.queries, seed=_QUERY_SEED)
    disk = DiskCostModel.disk_1995()
    table = Table(
        f"E8 (uniform): page size ablation (n={n}, k=4)",
        ["page B", "fanout", "height", "pages", "est. 1995-disk ms"],
        caption=(
            "Larger pages mean higher fanout, shorter trees and fewer (but "
            "bigger) reads; the I/O estimate uses a 1995 disk cost model."
        ),
    )
    for page_size in (512, 1024, 2048, 4096, 8192):
        model = PageModel(page_size=page_size, dimension=2)
        tree = build_tree(items, page_model=model)
        batch = run_query_batch(tree, queries, k=4)
        per_page = DiskCostModel(
            seek_ms=disk.seek_ms,
            transfer_ms_per_kib=disk.transfer_ms_per_kib,
            page_kib=page_size / 1024.0,
        )
        table.add_row(
            page_size,
            model.max_entries(),
            tree.height,
            batch.avg_pages,
            per_page.random_read_ms(batch.avg_pages),
        )
    return [table]


# ----------------------------------------------------------------------
# E9 — approximate search trade-off (extension)
# ----------------------------------------------------------------------
def _run_e9(scale: Scale) -> List[Table]:
    from repro.baselines.linear_scan import linear_scan_items
    from repro.core.query import nearest

    n = scale.base_size // 2
    items = _clustered_items(n)
    tree = build_tree(items, method="bulk")
    queries = query_points_uniform(
        max(10, scale.queries // 2), seed=_QUERY_SEED
    )
    k = 4
    exact_per_query = [
        [neighbor.distance for neighbor in linear_scan_items(items, q, k=k)]
        for q in queries
    ]
    table = Table(
        f"E9 (clustered): (1+eps)-approximate k-NN (n={n}, k={k})",
        ["epsilon", "pages", "mean error", "max error", "guarantee"],
        caption=(
            "Error = returned k-th distance / exact k-th distance - 1; the "
            "guarantee column is the permitted maximum (= epsilon)."
        ),
    )
    for epsilon in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0):
        total_pages = 0
        errors = []
        for q, exact in zip(queries, exact_per_query):
            got = nearest(
                tree, q,
                config=QueryConfig(k=k, algorithm="best-first", epsilon=epsilon),
            )
            total_pages += got.stats.nodes_accessed
            if exact and exact[-1] > 0:
                errors.append(got.distances()[-1] / exact[-1] - 1.0)
            else:
                errors.append(0.0)
        table.add_row(
            epsilon,
            total_pages / len(queries),
            sum(errors) / len(errors),
            max(errors),
            epsilon,
        )
    return [table]




# ----------------------------------------------------------------------
# E10 — index degradation under update churn (supporting)
# ----------------------------------------------------------------------
def _run_e10(scale: Scale) -> List[Table]:
    import random

    from repro.rtree.bulk import bulk_load
    from repro.rtree.quality import measure_quality
    from repro.storage.pager import PageModel

    n = scale.build_size
    model = PageModel()
    points = uniform_points(n, seed=_DATA_SEED)
    items = [(Rect.from_point(p), i) for i, p in enumerate(points)]
    queries = query_points_uniform(scale.queries, seed=_QUERY_SEED)
    rng = random.Random(_DATA_SEED + 1)

    tree = bulk_load(
        items, max_entries=model.max_entries(), min_entries=model.min_entries()
    )

    def snapshot(label):
        quality = measure_quality(tree)
        batch = run_query_batch(tree, queries, k=4)
        table.add_row(
            label,
            tree.node_count,
            quality.average_fill,
            batch.avg_pages,
        )

    table = Table(
        f"E10 (uniform): index degradation under churn (n={n})",
        ["phase", "nodes", "avg fill", "4-NN pages"],
        caption=(
            "Each churn round deletes and re-inserts 25% of the items "
            "(dynamic quadratic-split updates); 'rebuilt' bulk-reloads."
        ),
    )
    snapshot("freshly bulk-loaded")

    live = {i: rect for rect, i in [(r, i) for r, i in items]}
    next_id = n
    for round_index in range(1, 4):
        victims = rng.sample(sorted(live), k=n // 4)
        for victim in victims:
            tree.delete(live.pop(victim), payload=victim)
        lo, hi = 0.0, 1000.0
        for _ in victims:
            point = (rng.uniform(lo, hi), rng.uniform(lo, hi))
            rect = Rect.from_point(point)
            tree.insert(rect, payload=next_id)
            live[next_id] = rect
            next_id += 1
        snapshot(f"after churn round {round_index}")

    rebuilt_items = [(rect, i) for i, rect in sorted(live.items())]
    tree = bulk_load(
        rebuilt_items,
        max_entries=model.max_entries(),
        min_entries=model.min_entries(),
    )
    snapshot("rebuilt (bulk reload)")
    return [table]




# ----------------------------------------------------------------------
# E11 — window query selectivity (substrate experiment)
# ----------------------------------------------------------------------
def _run_e11(scale: Scale) -> List[Table]:
    import math

    from repro.storage.tracker import CountingTracker

    n = scale.base_size // 2
    items = _uniform_items(n)
    packed = build_tree(items, method="bulk")
    centers = query_points_uniform(scale.queries, seed=_QUERY_SEED)
    bounds_lo, bounds_hi = 0.0, 1000.0
    area = (bounds_hi - bounds_lo) ** 2

    table = Table(
        f"E11 (uniform): window query selectivity (n={n})",
        ["selectivity", "window side", "pages (packed)", "results/query"],
        caption=(
            f"{scale.queries} square windows per row, centered uniformly; "
            "selectivity = window area / data area."
        ),
    )
    for selectivity in (0.0001, 0.001, 0.01, 0.1):
        side = math.sqrt(selectivity * area)
        total_pages = 0
        total_hits = 0
        for center in centers:
            window = Rect(
                (center[0] - side / 2, center[1] - side / 2),
                (center[0] + side / 2, center[1] + side / 2),
            )
            tracker = CountingTracker()
            hits = packed.search(window, tracker=tracker)
            total_pages += tracker.stats.total
            total_hits += len(hits)
        table.add_row(
            selectivity,
            side,
            total_pages / len(centers),
            total_hits / len(centers),
        )
    return [table]




# ----------------------------------------------------------------------
# E12 — buffer policy comparison vs Belady's optimal (storage experiment)
# ----------------------------------------------------------------------
def _run_e12(scale: Scale) -> List[Table]:
    from repro.storage.replay import TraceRecorder, replay

    items = _road_items(scale.base_size)
    tree = build_tree(items, method="bulk")
    queries = query_points_uniform(2 * scale.queries, seed=_QUERY_SEED)
    recorder = TraceRecorder()
    run_query_batch(
        tree,
        queries,
        k=4,
        shared_tracker=recorder,
        object_distance_sq=segment_distance_sq,
    )
    trace = recorder.trace

    table = Table(
        f"E12 (roads): buffer policies vs Belady's optimal "
        f"(n={scale.base_size}, k=4)",
        ["buffer pages", "FIFO misses/q", "LRU misses/q", "OPT misses/q",
         "LRU/OPT"],
        caption=(
            f"One trace of {len(trace)} page accesses from "
            f"{len(queries)} queries, replayed under each policy; OPT is "
            "the clairvoyant lower bound."
        ),
    )
    per_query = float(len(queries))
    for capacity in scale.buffer_sizes:
        if capacity == 0:
            continue
        fifo = replay(trace, capacity, "fifo")
        lru = replay(trace, capacity, "lru")
        optimal = replay(trace, capacity, "optimal")
        ratio = lru.misses / optimal.misses if optimal.misses else 1.0
        table.add_row(
            capacity,
            fifo.misses / per_query,
            lru.misses / per_query,
            optimal.misses / per_query,
            ratio,
        )
    return [table]




# ----------------------------------------------------------------------
# E13 — disk-resident queries (storage capstone)
# ----------------------------------------------------------------------
def _run_e13(scale: Scale) -> List[Table]:
    import os
    import tempfile

    from repro.rtree.disk import DiskRTree, build_disk_index

    n = scale.base_size
    points = uniform_points(n, seed=_DATA_SEED)
    queries = query_points_uniform(2 * scale.queries, seed=_QUERY_SEED)
    path = os.path.join(
        tempfile.gettempdir(), f"repro-e13-{scale.name}-{n}.rnn"
    )

    table = Table(
        f"E13 (uniform): queries against the on-disk tree (n={n}, k=4)",
        ["node cache", "logical pages/q", "file reads/q", "absorbed"],
        caption=(
            f"{len(queries)} queries against a real page file; file reads "
            "are physical (decoded-node LRU cache misses)."
        ),
    )
    try:
        with build_disk_index(
            [(p, i) for i, p in enumerate(points)], path
        ) as warmup:
            total_pages = warmup.node_count
        for cache_nodes in (1, 8, 32, 128, 512):
            with DiskRTree(path, cache_nodes=cache_nodes) as disk:
                logical = 0
                for q in queries:
                    from repro.core.query import nearest

                    result = nearest(disk, q, k=4)
                    logical += result.stats.nodes_accessed
                physical = disk.file_reads
            per_query = float(len(queries))
            absorbed = 1.0 - physical / logical if logical else 0.0
            table.add_row(
                cache_nodes,
                logical / per_query,
                physical / per_query,
                absorbed,
            )
    finally:
        if os.path.exists(path):
            os.remove(path)
    return [table]


# ----------------------------------------------------------------------
# E14 — the serving layer: concurrent, cached batch execution
# ----------------------------------------------------------------------
def _run_e14(scale: Scale) -> List[Table]:
    from repro.core.config import QueryConfig
    from repro.core.query import nearest
    from repro.datasets.queries import query_points_clustered_sessions
    from repro.service.engine import QueryEngine

    n = scale.base_size
    n_queries = 100 * scale.queries
    k = 4
    config = QueryConfig(k=k)

    workloads = []
    uniform_data = uniform_points(n, seed=_DATA_SEED)
    workloads.append(
        ("uniform/distinct", uniform_data,
         query_points_uniform(n_queries, seed=_QUERY_SEED))
    )
    clustered_data = gaussian_clusters(n, seed=_DATA_SEED)
    workloads.append(
        ("clustered/sessions", clustered_data,
         query_points_clustered_sessions(
             n_queries, clustered_data,
             distinct=max(1, n_queries // 20), seed=_QUERY_SEED,
         ))
    )

    table = Table(
        f"E14: QueryEngine batch serving (n={n}, {n_queries} queries, k={k})",
        ["workload", "mode", "qps", "hit rate", "p95 ms", "speedup"],
        caption=(
            "Sequential = a bare `nearest` loop.  The engine adds a result "
            "cache keyed by (point, config, tree epoch) and a worker pool; "
            "on session-clustered workloads repeated points are answered "
            "from cache without touching a single page."
        ),
    )
    for label, data, queries in workloads:
        tree = build_tree(points_as_items(data))
        start = time.perf_counter()
        for q in queries:
            nearest(tree, q, config=config)
        sequential = time.perf_counter() - start
        table.add_row(
            label, "sequential", len(queries) / sequential, 0.0, "-", 1.0
        )
        for workers in (1, 2, 4):
            with QueryEngine(
                tree, config=config, workers=workers
            ) as engine:
                start = time.perf_counter()
                engine.query_batch(queries)
                elapsed = time.perf_counter() - start
                stats = engine.stats()
            table.add_row(
                label,
                f"engine w={workers}",
                len(queries) / elapsed,
                stats.hit_ratio,
                stats.latency_p95_ms,
                sequential / elapsed,
            )
    return [table]


EXPERIMENTS: Dict[str, Experiment] = {
    exp.id: exp
    for exp in (
        Experiment(
            "E1",
            "MINDIST vs MINMAXDIST ABL ordering",
            'Paper figure "ordering comparison"',
            "Pages accessed per 1-NN query vs dataset size for both ABL "
            "orderings; the paper finds MINDIST (optimistic) ordering "
            "strictly better.",
            _run_e1,
        ),
        Experiment(
            "E2",
            "Pages accessed vs number of neighbors k",
            'Paper figure "pages vs k"',
            "Page accesses grow slowly (sub-linearly) with k; DFS stays "
            "close to the optimal best-first search.",
            _run_e2,
        ),
        Experiment(
            "E3",
            "Effect of an LRU buffer",
            'Paper figure "buffering"',
            "Consecutive queries revisit the tree's top levels; a small LRU "
            "buffer absorbs most physical reads.",
            _run_e3,
        ),
        Experiment(
            "E4",
            "Scaling with dataset size",
            'Paper figure "size scaling"',
            "Pages per query grow logarithmically with n (with the tree "
            "height).",
            _run_e4,
        ),
        Experiment(
            "E5",
            "Pruning strategy ablation",
            "Paper section 4 (promoted to a table)",
            "Contribution of P1/P2/P3; disabling everything degrades to an "
            "exhaustive scan of all pages.",
            _run_e5,
        ),
        Experiment(
            "E6",
            "Algorithm comparison",
            "Paper evaluation tables",
            "The paper's DFS vs best-first vs kd-tree vs linear scan across "
            "three data distributions.",
            _run_e6,
        ),
        Experiment(
            "E7",
            "Index construction ablation",
            "Supporting experiment (design-choice ablation)",
            "Build cost and query quality for linear/quadratic/R* splits, "
            "STR and Hilbert bulk loading.",
            _run_e7,
        ),
        Experiment(
            "E8",
            "Page size ablation",
            "Paper branching-factor discussion (promoted to a table)",
            "Fanout, tree height, page accesses and estimated 1995-disk I/O "
            "time as the page size varies.",
            _run_e8,
        ),
        Experiment(
            "E13",
            "Disk-resident queries",
            "Storage capstone (the simulation made physical)",
            "The NN search against a real binary page file: logical page "
            "counts match the simulation and a decoded-node cache absorbs "
            "physical reads.",
            _run_e13,
        ),
        Experiment(
            "E14",
            "QueryEngine concurrent cached serving",
            "Serving extension (Maneewongvatana & Mount's clustered workloads)",
            "Throughput of the serving layer vs a sequential `nearest` "
            "loop: worker pool plus an epoch-invalidated result cache, on "
            "uniform-distinct and session-clustered query batches.",
            _run_e14,
        ),
        Experiment(
            "E12",
            "Buffer policies vs Belady's optimal",
            "Storage experiment (extends the paper's buffering study)",
            "Replays one query batch's page trace under FIFO, LRU and the "
            "clairvoyant OPT policy to bound what smarter caching could buy.",
            _run_e12,
        ),
        Experiment(
            "E11",
            "Window query selectivity",
            "Substrate experiment (Guttman-style range queries)",
            "Pages accessed by window queries as selectivity grows; the "
            "classic R-tree workload the NN search shares its index with.",
            _run_e11,
        ),
        Experiment(
            "E10",
            "Index degradation under update churn",
            "Supporting experiment (dynamic maintenance)",
            "Query cost and node fill of a packed tree after rounds of "
            "delete/insert churn, and after a bulk rebuild.",
            _run_e10,
        ),
        Experiment(
            "E9",
            "Approximate search trade-off",
            "Extension: (1+eps)-approximate k-NN on the paper's search",
            "Pages saved and observed error as the approximation slack "
            "grows; observed error never exceeds the guarantee.",
            _run_e9,
        ),
    )
}


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by id (case-insensitive)."""
    key = experiment_id.upper()
    try:
        return EXPERIMENTS[key]
    except KeyError:
        raise InvalidParameterError(
            f"unknown experiment {experiment_id!r}; expected one of "
            f"{sorted(EXPERIMENTS)}"
        ) from None
