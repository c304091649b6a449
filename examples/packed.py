#!/usr/bin/env python
"""The packed struct-of-arrays query path.

The object R-tree is built for mutation; its query hot path pays for
that in attribute chains, metric function calls and per-entry tuple
allocations.  ``PackedTree`` compiles the finished tree into flat
``array`` slabs that specialized kernels walk with integer offsets —
same answers, same ``SearchStats``, a multiple faster.

This walkthrough:

1. compiles a 50k-point index and shows what the compile produces;
2. proves the packed DFS answers a query stream identically to
   ``nearest_dfs`` (payloads, distances *and* page-access statistics);
3. times both kernels on the same stream;
4. serves through ``QueryEngine(packed=True)`` and shows epoch-based
   recompilation after an insert.

Run with::

    python examples/packed.py
"""

import statistics
import time

from repro import EngineOptions, PackedTree, QueryConfig, QueryEngine
from repro.bench.harness import build_tree, points_as_items
from repro.core.knn_dfs import nearest_dfs
from repro.datasets import uniform_points
from repro.datasets.queries import query_points_uniform
from repro.packed.kernels import packed_nearest_dfs
from repro.storage.pager import PageModel


def main() -> None:
    # --- 1. compile ----------------------------------------------------
    points = uniform_points(50_000, seed=150)
    tree = build_tree(
        points_as_items(points), page_model=PageModel(page_size=4096)
    )

    start = time.perf_counter()
    packed = tree.packed()  # cached per mutation epoch
    compile_ms = (time.perf_counter() - start) * 1e3

    print(
        f"compiled {len(packed):,} items / {packed.node_count:,} nodes "
        f"into {packed.nbytes() / 1024:.0f} KiB of slabs "
        f"in {compile_ms:.1f} ms"
    )
    assert tree.packed() is packed, "same epoch -> same compiled snapshot"

    # --- 2. identical answers ------------------------------------------
    queries = query_points_uniform(200, seed=151)
    for q in queries:
        obj_nb, obj_stats = nearest_dfs(tree, q, k=10)
        pk_nb, pk_stats = packed_nearest_dfs(packed, q, k=10)
        assert [n.payload for n in obj_nb] == [n.payload for n in pk_nb]
        assert [n.distance for n in obj_nb] == [n.distance for n in pk_nb]
        assert obj_stats == pk_stats  # even the pruning counters match
    print(f"parity: {len(queries)} queries, results and stats identical")

    # --- 3. latency ----------------------------------------------------
    object_times, packed_times = [], []
    for _ in range(5):  # interleaved so CPU noise lands on both sides
        start = time.perf_counter()
        for q in queries:
            nearest_dfs(tree, q, k=10)
        object_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        for q in queries:
            packed_nearest_dfs(packed, q, k=10)
        packed_times.append(time.perf_counter() - start)
    obj_ms = statistics.median(object_times) * 1e3 / len(queries)
    pk_ms = statistics.median(packed_times) * 1e3 / len(queries)
    print(
        f"object {obj_ms:.3f} ms/q, packed {pk_ms:.3f} ms/q "
        f"-> {obj_ms / pk_ms:.2f}x"
    )

    # --- 4. serving + epoch lifecycle ----------------------------------
    with QueryEngine(
        tree,
        config=QueryConfig(k=10),
        options=EngineOptions(workers=1, packed=True),
    ) as engine:
        engine.query_batch(queries)
        before = tree.packed()
        engine.insert((500.25, 500.25), payload=999_999)
        hit = engine.query((500.25, 500.25), k=1)
        assert hit.payloads() == [999_999]
        assert tree.packed() is not before, "mutation forced a recompile"
        print(
            "engine: insert bumped the epoch, next query recompiled "
            f"(epoch {tree.packed().epoch}) and found the new point"
        )

    # PackedTree is also importable at the top level:
    assert isinstance(packed, PackedTree)


if __name__ == "__main__":
    main()
