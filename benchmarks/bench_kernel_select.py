"""Solo loop vs numpy block for a window of one: where each one wins.

``packed_nearest_best_first`` runs the numpy block of
``repro.packed.batch`` for a hook-free query only when two observations
say it wins (``repro.packed.kernels._select_block``): the snapshot's mean
entries per node reaches ``_BLOCK_MIN_FANOUT``, and the previous
best-first query finished less than ``_BLOCK_WARM_S`` ago.  This script
measures both crossovers those constants are set from:

1. back to back, fanout {8, 16, 32, 48, 64, 96, 113, 227} x dim {2, 3} x
   k {1, 10, 50}: ms per query of each kernel and the block's change;
2. at fanout 113, dim 2, k 10, with a gap of {0, 0.25, 0.5, 0.75, 1, 2, 3.3}
   ms between queries filled by a fixed slab of unrelated Python work
   (a JSON round trip and a sort, the kind of work a front door does
   between two lone requests) and then idle time.

Both kernels are called directly, past the gate, with the entry point's
own prelude and result materialization; their answers are compared
(neighbours, distances, ``SearchStats``) on every query.

A third line times the library default, the paper's DFS: the public
``packed_nearest_dfs`` at fanout 113, dim 2, at k = 1 with the default
pruning (P1, P2 and P3) and at k = 10 (P3 only), with the answer and
``SearchStats`` compared against the object kernel ``nearest_dfs`` on
every query.  It needs no numpy and runs without it.

A measuring instrument, not a gate: it asserts nothing about time.

    PYTHONPATH=src python benchmarks/bench_kernel_select.py            # n = 200,000
    PYTHONPATH=src python benchmarks/bench_kernel_select.py --smoke    # n = 20,000
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from bench_cold_start import host_stamp

from repro import bulk_load
from repro.core.knn_dfs import nearest_dfs
from repro.datasets import uniform_points
from repro.geometry.rect import Rect
from repro.packed import batch, kernels
from repro.packed.kernels import (
    _begin_query,
    _best_first_2d,
    _best_first_general,
    _heap_to_neighbors,
    packed_nearest_dfs,
)

FANOUTS = (8, 16, 32, 48, 64, 96, 113, 227)
DIMS = (2, 3)
KS = (1, 10, 50)
GAPS_MS = (0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.3)
GAP_FANOUT = 113
GAP_K = 10
DFS_FANOUT = 113
DFS_KS = (1, 10)


def solo(ptree: Any, point: Sequence[float], k: int) -> Tuple[list, Any]:
    """The loop a hook-free query ran before the selection existed."""
    query, stats, slots, shrink_sq = _begin_query(ptree, point, k, 0.0)
    if ptree.dimension == 2:
        heap = _best_first_2d(ptree, query[0], query[1], slots, shrink_sq, None, stats)
    else:
        heap, _ = _best_first_general(ptree, query, slots, shrink_sq, None, stats, None, None)
    return _heap_to_neighbors(ptree, heap), stats


def block(ptree: Any, point: Sequence[float], k: int) -> Tuple[list, Any]:
    """The numpy block as a window of one (what the gate selects)."""
    query, stats, slots, shrink_sq = _begin_query(ptree, point, k, 0.0)
    heap = batch._window_of_one(ptree, query, slots, shrink_sq, None, stats)
    return _heap_to_neighbors(ptree, heap), stats


KERNELS: Dict[str, Callable[[Any, Sequence[float], int], Tuple[list, Any]]] = {
    "solo": solo,
    "block": block,
}


def same(a: Tuple[list, Any], b: Tuple[list, Any]) -> bool:
    return a[1] == b[1] and [
        (n.payload, n.distance_squared) for n in a[0]
    ] == [(n.payload, n.distance_squared) for n in b[0]]


def build(n: int, dim: int, fanout: int, seed: int) -> Any:
    points = uniform_points(n, seed=seed, dimension=dim)
    return bulk_load(
        [(Rect.from_point(p), i) for i, p in enumerate(points)], max_entries=fanout
    ).packed()


def mean_fanout(ptree: Any) -> float:
    return ptree.starts[-1] / (len(ptree.starts) - 1)


def back_to_back(
    ptree: Any, queries: Sequence[Sequence[float]], k: int, passes: int
) -> Dict[str, float]:
    """Median over interleaved passes of each kernel's mean ms per query."""
    for q in queries[:20]:
        if not same(solo(ptree, q, k), block(ptree, q, k)):
            raise SystemExit(f"kernels disagree at {q} k={k}")
    per_pass: Dict[str, List[float]] = {name: [] for name in KERNELS}
    for _ in range(passes):
        for name, kernel in KERNELS.items():
            started = time.perf_counter()
            for q in queries:
                kernel(ptree, q, k)
            per_pass[name].append(1e3 * (time.perf_counter() - started) / len(queries))
    return {name: statistics.median(v) for name, v in per_pass.items()}


_SLAB = {"point": [123.456, 789.012], "k": 10, "neighbors": list(range(40))}


def unrelated_work() -> None:
    """A fixed slab of Python that is not the kernel (about 20-40 us)."""
    body = json.dumps(_SLAB)
    for _ in range(4):
        sorted(json.loads(body)["neighbors"], key=lambda x: -x)


def with_gaps(
    ptree: Any, queries: Sequence[Sequence[float]], gap_s: float
) -> Dict[str, float]:
    """Median ms per query of each kernel when *gap_s* separates queries.

    Each kernel call is preceded by the same gap — unrelated work, then
    idle time until *gap_s* has passed since the previous call ended —
    and the two kernels alternate query by query.
    """
    samples: Dict[str, List[float]] = {name: [] for name in KERNELS}
    ended = time.perf_counter()
    for q in queries:
        for name, kernel in KERNELS.items():
            if gap_s:
                unrelated_work()
                idle = gap_s - (time.perf_counter() - ended)
                if idle > 0:
                    time.sleep(idle)
            started = time.perf_counter()
            kernel(ptree, q, GAP_K)
            ended = time.perf_counter()
            samples[name].append(1e3 * (ended - started))
    return {name: statistics.median(v) for name, v in samples.items()}


def dfs_default(n: int, rounds: int, passes: int, seed: int) -> None:
    """Time ``packed_nearest_dfs`` at each of ``DFS_KS``, default pruning."""
    points = uniform_points(n, seed=seed)
    tree = bulk_load(
        [(Rect.from_point(p), i) for i, p in enumerate(points)], max_entries=DFS_FANOUT
    )
    ptree = tree.packed()
    queries = uniform_points(rounds, seed=seed + 13)
    print(
        f"\n3. packed_nearest_dfs, fanout {DFS_FANOUT}, dim 2, default pruning"
        " (ms/query, median of passes; answers checked against nearest_dfs)"
    )
    for k in DFS_KS:
        for q in queries:
            if not same(packed_nearest_dfs(ptree, q, k), nearest_dfs(tree, q, k)):
                raise SystemExit(f"packed and object DFS disagree at {q} k={k}")
        per_pass = []
        for _ in range(passes):
            started = time.perf_counter()
            for q in queries:
                packed_nearest_dfs(ptree, q, k)
            per_pass.append(1e3 * (time.perf_counter() - started) / len(queries))
        print(f"  k {k:>2}   {statistics.median(per_pass):.4f}")


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="n = 20,000, fewer queries")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    n, rounds, passes, gap_rounds = (
        (20_000, 100, 3, 60) if args.smoke else (200_000, 600, 5, 400)
    )
    print(f"kernel selection sweep: n={n} queries={rounds} passes={passes} {host_stamp()}")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("pinned to one CPU, as perf/ pins its workloads")
    if not batch.NUMPY_AVAILABLE:
        print("numpy is not importable: the block never runs here; sections 1-2 skipped")
        dfs_default(n, rounds, passes, args.seed)
        return 0
    print(
        f"gate today: mean entries/node >= {kernels._BLOCK_MIN_FANOUT} and"
        f" < {1e3 * kernels._BLOCK_WARM_S:g} ms since the last query"
    )

    print("\n1. back to back (ms/query, median of passes; block vs solo)")
    print(f"  {'dim':>3} {'fanout':>6} {'mean':>6}  " + "  ".join(
        f"{'k=' + str(k):>22}" for k in KS
    ))
    wins: Dict[int, Dict[int, bool]] = {dim: {} for dim in DIMS}
    trees: Dict[Tuple[int, int], Any] = {}
    for dim in DIMS:
        queries = uniform_points(rounds, seed=args.seed + 7, dimension=dim)
        for fanout in FANOUTS:
            ptree = build(n, dim, fanout, args.seed)
            if (dim, fanout) == (2, GAP_FANOUT):
                trees[dim, fanout] = ptree
            cells = []
            won = True
            for k in KS:
                ms = back_to_back(ptree, queries, k, passes)
                change = ms["block"] / ms["solo"] - 1.0
                won = won and change < 0.0
                cells.append(f"{ms['solo']:.3f}/{ms['block']:.3f} {100 * change:+5.0f}%")
            wins[dim][fanout] = won
            print(f"  {dim:>3} {fanout:>6} {mean_fanout(ptree):6.1f}  " + "  ".join(
                f"{c:>22}" for c in cells
            ))
    for dim in DIMS:
        above = [f for f in FANOUTS if all(wins[dim][g] for g in FANOUTS if g >= f)]
        crossover = above[0] if above else None
        print(
            f"  dim {dim}: the block wins at every k from fanout "
            f"{crossover if crossover is not None else '(never)'} up"
        )

    ptree = trees[2, GAP_FANOUT]
    queries = uniform_points(gap_rounds, seed=args.seed + 11)
    print(
        f"\n2. inter-arrival gap, fanout {GAP_FANOUT}, dim 2, k {GAP_K}"
        " (median ms/query; unrelated work + idle between queries)"
    )
    changes = []
    for gap_ms in GAPS_MS:
        ms = with_gaps(ptree, queries, gap_ms / 1e3)
        changes.append(ms["block"] / ms["solo"] - 1.0)
        print(
            f"  gap {gap_ms:4.2f} ms   solo {ms['solo']:.3f}   block {ms['block']:.3f}"
            f"   {100 * changes[-1]:+5.0f}%"
        )
    won = [g for i, g in enumerate(GAPS_MS) if all(c < 0.0 for c in changes[:i + 1])]
    print(f"  the block wins at every gap up to {f'{won[-1]:g} ms' if won else '(none)'}")
    dfs_default(n, rounds, passes, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
