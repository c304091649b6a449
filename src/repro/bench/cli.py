"""Command-line entry point: ``python -m repro.bench`` / ``repro-bench``.

Subcommands:

- ``list`` — show every registered experiment with its paper reference.
- ``run <id>|all [--scale quick|default|full] [--markdown] [-o FILE]`` —
  execute experiments and print their tables.
- ``scrub <file> [--page-size N]`` — verify a disk index's page
  checksums and structural invariants; exit 1 if damage is found.
- ``engine [--workers N] [--queries N] ...`` — drive the serving layer
  (:class:`repro.service.QueryEngine`) with a session-clustered workload,
  compare against a sequential ``nearest`` loop and print the engine's
  latency/cache statistics; with ``--expect-hits``, exit 1 unless the
  result cache absorbed at least one query (the CI throughput smoke).
- ``audit [--cases N] [--seed S] [--shrink] ...`` — the differential
  correctness audit (same flags as ``python -m repro.audit``): replay
  seeded workloads through every algorithm and backend, certify the
  pruning invariants, and exit 1 on any diff.
- ``batch [--window W] [--min-speedup R] ...`` — the multi-query batch
  kernel smoke: every window member must be bit-identical to the solo
  best-first kernel (results + statistics, vectorized and fallback
  paths), and the windowed traversal must beat the solo loop by
  ``--min-speedup`` when one is given.
- ``obs [--n N] [--gate R] ...`` — the observability overhead smoke:
  times the packed DFS hot path with tracing disabled against the raw
  kernel floor and exits 1 if the disabled-tracer cost exceeds the gate
  (default 1.05x; CI uses 1.1x).
- ``resilience [--gate R] [--soak-queries N] ...`` — the overload
  resilience smoke: gates the cost of the ``budget is None`` check on
  the unbudgeted packed hot path (same shape as ``obs``) and then runs
  a seeded mini chaos soak (``python -m repro.chaos`` semantics) that
  must certify every served answer and conserve its accounting.
- ``server [--connections N] [--min-speedup R] ...`` — the asyncio
  front-door soak smoke: boots the HTTP server over a sharded engine
  with coalescing off and on, floods it over real sockets, certifies
  every served answer against the linear-scan oracle and reconciles the
  client ledger against the server's own metrics; exits 1 on any
  soundness violation, and on a coalesced/direct QPS ratio below
  ``--min-speedup`` when one is given.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.bench.experiments import EXPERIMENTS, Scale, get_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the evaluation of 'Nearest Neighbor Queries' "
        "(SIGMOD 1995).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all experiments")

    report = sub.add_parser(
        "report", help="run all experiments and emit one markdown report"
    )
    report.add_argument(
        "--scale",
        default="quick",
        choices=sorted(Scale.presets()),
        help="workload sizing preset (default: quick)",
    )
    report.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="experiment ids to include (default: all)",
    )
    report.add_argument(
        "-o", "--output", default=None, help="file to write the report to"
    )

    viz = sub.add_parser(
        "viz", help="render a sample R-tree (and a query) as an SVG file"
    )
    viz.add_argument("svg_path", help="SVG file to write")
    viz.add_argument("--n", type=int, default=400, help="number of points")
    viz.add_argument(
        "--dataset",
        default="clustered",
        choices=["uniform", "clustered", "skewed"],
        help="point distribution",
    )
    viz.add_argument(
        "--split",
        default="quadratic",
        choices=["linear", "quadratic", "rstar"],
        help="split strategy for the dynamic build",
    )
    viz.add_argument("--seed", type=int, default=0, help="dataset seed")
    viz.add_argument("--k", type=int, default=5, help="neighbors to mark")

    scrub = sub.add_parser(
        "scrub",
        help="audit a disk R-tree file: checksums + structural invariants",
    )
    scrub.add_argument("file", help="path to an RNN1/RNN2 index file")
    scrub.add_argument(
        "--page-size",
        type=int,
        default=4096,
        help="page size the file was written with (default: 4096)",
    )

    engine = sub.add_parser(
        "engine",
        help="serving-layer throughput demo: QueryEngine vs sequential loop",
    )
    engine.add_argument(
        "--n", type=int, default=20000, help="indexed points (default: 20000)"
    )
    engine.add_argument(
        "--queries",
        type=int,
        default=10000,
        help="queries in the batch (default: 10000)",
    )
    engine.add_argument(
        "--distinct",
        type=int,
        default=500,
        help="distinct hot-spot query points (default: 500)",
    )
    engine.add_argument(
        "--workers", type=int, default=4, help="worker threads (default: 4)"
    )
    engine.add_argument("--k", type=int, default=4, help="neighbors per query")
    engine.add_argument(
        "--cache",
        type=int,
        default=4096,
        help="result-cache capacity (default: 4096; 0 disables)",
    )
    engine.add_argument(
        "--buffer-pages",
        type=int,
        default=0,
        help="per-worker LRU page buffer (default: 0)",
    )
    engine.add_argument(
        "--dataset",
        default="clustered",
        choices=["uniform", "clustered"],
        help="indexed point distribution (default: clustered)",
    )
    engine.add_argument("--seed", type=int, default=0, help="workload seed")
    engine.add_argument(
        "--expect-hits",
        action="store_true",
        help="exit 1 unless the result cache served at least one query",
    )

    audit = sub.add_parser(
        "audit",
        help="differential correctness audit "
        "(alias for python -m repro.audit)",
    )
    from repro.audit.__main__ import add_audit_arguments

    add_audit_arguments(audit)

    packed = sub.add_parser(
        "packed",
        help="packed-kernel perf smoke: parity check + speedup gate "
        "(exit 1 below --min-speedup)",
    )
    packed.add_argument(
        "--n", type=int, default=20000, help="indexed points (default: 20000)"
    )
    packed.add_argument(
        "--queries", type=int, default=64, help="query batch size (default: 64)"
    )
    packed.add_argument(
        "--k", type=int, default=10, help="neighbors per query (default: 10)"
    )
    packed.add_argument(
        "--page-size",
        type=int,
        default=4096,
        help="page model sizing the tree fanout (default: 4096)",
    )
    packed.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="fail below this object/packed latency ratio (default: 1.5)",
    )
    packed.add_argument(
        "--reps",
        type=int,
        default=7,
        help="interleaved best-of timing repetitions (default: 7)",
    )
    packed.add_argument("--seed", type=int, default=0, help="workload seed")

    batch = sub.add_parser(
        "batch",
        help="multi-query batch kernel smoke: bit-parity vs the solo "
        "best-first kernel + windowed speedup gate (exit 1 on either)",
    )
    batch.add_argument(
        "--n",
        type=int,
        default=100000,
        help="indexed points (default: 100000)",
    )
    batch.add_argument(
        "--queries",
        type=int,
        default=192,
        help="total query points (default: 192)",
    )
    batch.add_argument(
        "--window",
        type=int,
        default=16,
        help="queries per batched traversal (default: 16)",
    )
    batch.add_argument(
        "--k", type=int, default=10, help="neighbors per query (default: 10)"
    )
    batch.add_argument(
        "--page-size",
        type=int,
        default=8192,
        help="page model sizing the tree fanout (default: 8192)",
    )
    batch.add_argument(
        "--epsilon",
        type=float,
        default=0.0,
        help="approximation band for the parity check (default: 0.0)",
    )
    batch.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail below this solo/batched latency ratio on the default "
        "path; default: report only (the committed E20 baseline carries "
        "the 2x gate; CI smoke passes 1.3)",
    )
    batch.add_argument(
        "--reps",
        type=int,
        default=5,
        help="interleaved best-of timing repetitions (default: 5)",
    )
    batch.add_argument("--seed", type=int, default=0, help="workload seed")

    obs = sub.add_parser(
        "obs",
        help="observability overhead smoke: disabled tracing must cost "
        "<5%% on the packed DFS hot path (exit 1 above --gate)",
    )
    obs.add_argument(
        "--n",
        type=int,
        default=100000,
        help="indexed points (default: 100000)",
    )
    obs.add_argument(
        "--queries", type=int, default=64, help="query batch size (default: 64)"
    )
    obs.add_argument(
        "--k", type=int, default=10, help="neighbors per query (default: 10)"
    )
    obs.add_argument(
        "--gate",
        type=float,
        default=1.05,
        help="fail if (public trace=None)/(kernel only) exceeds this "
        "ratio (default: 1.05; CI smoke uses 1.1 for flake tolerance)",
    )
    obs.add_argument(
        "--reps",
        type=int,
        default=7,
        help="interleaved best-of timing repetitions (default: 7)",
    )
    obs.add_argument("--seed", type=int, default=0, help="workload seed")

    resil = sub.add_parser(
        "resilience",
        help="resilience overhead smoke: the budget check must cost "
        "<5%% on the unbudgeted packed DFS hot path (exit 1 above "
        "--gate), plus a seeded mini chaos soak that must PASS",
    )
    resil.add_argument(
        "--n",
        type=int,
        default=100000,
        help="indexed points (default: 100000)",
    )
    resil.add_argument(
        "--queries", type=int, default=64, help="query batch size (default: 64)"
    )
    resil.add_argument(
        "--k", type=int, default=10, help="neighbors per query (default: 10)"
    )
    resil.add_argument(
        "--gate",
        type=float,
        default=1.05,
        help="fail if (public budget=None)/(kernel only) exceeds this "
        "ratio (default: 1.05; CI smoke uses 1.1 for flake tolerance)",
    )
    resil.add_argument(
        "--reps",
        type=int,
        default=7,
        help="interleaved best-of timing repetitions (default: 7)",
    )
    resil.add_argument(
        "--soak-queries",
        type=int,
        default=1000,
        help="queries for the embedded chaos soak (default: 1000; "
        "0 skips the soak)",
    )
    resil.add_argument("--seed", type=int, default=0, help="workload seed")

    shard = sub.add_parser(
        "shard",
        help="sharded-engine smoke: cross-process answer parity + "
        "shared-memory leak check, plus a core-aware scaling gate "
        "vs the thread engine (exit 1 on any failure)",
    )
    shard.add_argument(
        "--n", type=int, default=20000, help="indexed points (default: 20000)"
    )
    shard.add_argument(
        "--queries",
        type=int,
        default=256,
        help="query batch size (default: 256)",
    )
    shard.add_argument(
        "--k", type=int, default=10, help="neighbors per query (default: 10)"
    )
    shard.add_argument(
        "--shards",
        type=int,
        default=2,
        help="worker processes / thread-engine pool width (default: 2)",
    )
    shard.add_argument(
        "--min-scaling",
        type=float,
        default=None,
        help="fail below this sharded/thread QPS ratio; default: gate "
        "1.1x only when the host exposes more CPUs than --shards, "
        "otherwise report the ratio and gate parity + leaks only",
    )
    shard.add_argument(
        "--reps",
        type=int,
        default=5,
        help="interleaved best-of timing repetitions (default: 5)",
    )
    shard.add_argument("--seed", type=int, default=0, help="workload seed")

    server = sub.add_parser(
        "server",
        help="front-door soak smoke: real-socket flood with coalescing "
        "off vs on, every answer oracle-certified and the client ledger "
        "reconciled against server metrics (exit 1 on any violation; "
        "--min-speedup additionally gates the QPS ratio)",
    )
    server.add_argument(
        "--n", type=int, default=32768, help="indexed points (default: 32768)"
    )
    server.add_argument(
        "--connections",
        type=int,
        default=500,
        help="concurrent client connections (default: 500)",
    )
    server.add_argument(
        "--requests",
        type=int,
        default=4,
        help="requests per connection per soak (default: 4)",
    )
    server.add_argument(
        "--queries",
        type=int,
        default=128,
        help="distinct query points, each oracle-precomputed "
        "(default: 128)",
    )
    server.add_argument(
        "--k", type=int, default=10, help="neighbors per query (default: 10)"
    )
    server.add_argument(
        "--shards",
        type=int,
        default=1,
        help="engine worker processes behind the front door (default: 1 "
        "— per-request RPC overhead is what coalescing amortizes; more "
        "shards duplicate batch fan-out work on small hosts)",
    )
    server.add_argument(
        "--max-wait-ms",
        type=float,
        default=1.0,
        help="coalescing window (default: 1.0)",
    )
    server.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="coalescing batch cap (default: 64)",
    )
    server.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail below this coalesced/direct QPS ratio; default: "
        "report the ratio and gate soundness only (shared runners are "
        "noisy — the committed E19 baseline carries the 1.5x gate)",
    )
    server.add_argument(
        "--reps",
        type=int,
        default=3,
        help="interleaved best-of soak repetitions per mode (default: 3)",
    )
    server.add_argument("--seed", type=int, default=0, help="workload seed")

    spans = sub.add_parser(
        "spans",
        help="span overhead smoke: the sampling-off serving path must "
        "stay within --gate of the spans=False front door (exit 1 "
        "above the gate or on any soundness violation)",
    )
    spans.add_argument(
        "--n", type=int, default=32768, help="indexed points (default: 32768)"
    )
    spans.add_argument(
        "--connections",
        type=int,
        default=200,
        help="concurrent client connections (default: 200)",
    )
    spans.add_argument(
        "--requests",
        type=int,
        default=4,
        help="requests per connection per soak (default: 4)",
    )
    spans.add_argument(
        "--queries",
        type=int,
        default=128,
        help="distinct query points, each oracle-precomputed "
        "(default: 128)",
    )
    spans.add_argument(
        "--k", type=int, default=10, help="neighbors per query (default: 10)"
    )
    spans.add_argument(
        "--gate",
        type=float,
        default=1.05,
        help="fail if qps(spans=False)/qps(span_sample=0) exceeds this "
        "ratio (default: 1.05; CI smoke uses 1.1 for flake tolerance)",
    )
    spans.add_argument(
        "--reps",
        type=int,
        default=3,
        help="interleaved best-of soak repetitions per mode (default: 3)",
    )
    spans.add_argument("--seed", type=int, default=0, help="workload seed")

    run = sub.add_parser("run", help="run one experiment or 'all'")
    run.add_argument("experiment", help="experiment id (E1..E7) or 'all'")
    run.add_argument(
        "--scale",
        default="default",
        choices=sorted(Scale.presets()),
        help="workload sizing preset (default: default)",
    )
    run.add_argument(
        "--markdown",
        action="store_true",
        help="emit GitHub-flavored markdown tables",
    )
    run.add_argument(
        "--csv",
        action="store_true",
        help="emit CSV tables (for plotting pipelines)",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON document (committed perf baselines use this)",
    )
    run.add_argument(
        "--plot",
        action="store_true",
        help="append an ASCII line chart under each table",
    )
    run.add_argument(
        "-o",
        "--output",
        default=None,
        help="also write the output to this file",
    )
    return parser


def _run_command(args: argparse.Namespace) -> str:
    scale = Scale.by_name(args.scale)
    if args.experiment.lower() == "all":
        experiments = [EXPERIMENTS[key] for key in sorted(EXPERIMENTS)]
    else:
        experiments = [get_experiment(args.experiment)]

    if args.json:
        return _run_json(experiments, scale)

    blocks: List[str] = []
    for experiment in experiments:
        header = f"## {experiment.id} — {experiment.title}"
        blocks.append(header)
        blocks.append(f"({experiment.paper_ref}; scale={scale.name})")
        blocks.append(experiment.description)
        start = time.perf_counter()
        tables = experiment.run(scale)
        elapsed = time.perf_counter() - start
        for table in tables:
            if args.csv:
                blocks.append(f"# {table.title}\n" + table.to_csv())
            elif args.markdown:
                blocks.append(table.to_markdown())
            else:
                blocks.append(table.render())
            if args.plot:
                from repro.bench.plots import plot_table
                from repro.errors import InvalidParameterError

                try:
                    blocks.append(plot_table(table))
                except InvalidParameterError:
                    pass  # tables without numeric series are just printed
        blocks.append(f"[{experiment.id} completed in {elapsed:.1f}s]")
        blocks.append("")
    return "\n\n".join(blocks)


def _run_json(experiments: list, scale) -> str:
    """One JSON document per invocation: the committed-baseline format.

    Timing cells vary run to run, of course — a committed baseline is a
    reference point for eyeballing regressions and for the figure
    pipeline, not a CI assertion (the assertions live in
    ``python -m repro.bench packed`` and the benchmark suite, with
    deliberate margins).
    """
    import json
    import os
    import platform

    # Provenance: timing baselines are meaningless without knowing how
    # many CPUs the run actually saw (cgroup-limited runners lie through
    # os.cpu_count) and whether the vectorized kernels were in play.
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = (
        len(affinity(0)) if affinity is not None else (os.cpu_count() or 1)
    )
    from repro.packed.batch import NUMPY_AVAILABLE

    document = {
        "schema": "repro-bench/1",
        "scale": scale.name,
        "python": platform.python_version(),
        "cpus": cpus,
        "numpy": NUMPY_AVAILABLE,
        "experiments": [],
    }
    for experiment in experiments:
        start = time.perf_counter()
        tables = experiment.run(scale)
        elapsed = time.perf_counter() - start
        document["experiments"].append(
            {
                "id": experiment.id,
                "title": experiment.title,
                "paper_ref": experiment.paper_ref,
                "elapsed_s": round(elapsed, 3),
                "tables": [table.to_dict() for table in tables],
            }
        )
    return json.dumps(document, indent=2)


def _packed_command(args: argparse.Namespace) -> tuple:
    """Perf smoke for the packed kernels: parity first, then a speedup gate.

    Interleaves the object/packed timing reps (best-of-N each) so CPU
    noise lands on both sides equally; the default 1.5x threshold sits
    far below the ~3x typically measured, keeping the gate flake-proof.
    """
    from repro.bench.harness import build_tree, points_as_items
    from repro.core.knn_dfs import nearest_dfs
    from repro.datasets.queries import query_points_uniform
    from repro.datasets.synthetic import uniform_points
    from repro.packed.kernels import packed_nearest_dfs
    from repro.packed.layout import PackedTree
    from repro.storage.pager import PageModel

    points = uniform_points(args.n, seed=args.seed)
    queries = query_points_uniform(args.queries, seed=args.seed + 1)
    tree = build_tree(
        points_as_items(points),
        page_model=PageModel(page_size=args.page_size),
    )
    ptree = PackedTree.from_tree(tree)

    mismatches = 0
    for q in queries:
        obj_nb, obj_stats = nearest_dfs(tree, q, k=args.k)
        pk_nb, pk_stats = packed_nearest_dfs(ptree, q, k=args.k)
        if (
            [nb.payload for nb in obj_nb] != [nb.payload for nb in pk_nb]
            or [nb.distance for nb in obj_nb] != [nb.distance for nb in pk_nb]
            or obj_stats != pk_stats
        ):
            mismatches += 1

    object_s = packed_s = float("inf")
    for _ in range(args.reps):
        start = time.perf_counter()
        for q in queries:
            nearest_dfs(tree, q, k=args.k)
        object_s = min(object_s, time.perf_counter() - start)
        start = time.perf_counter()
        for q in queries:
            packed_nearest_dfs(ptree, q, k=args.k)
        packed_s = min(packed_s, time.perf_counter() - start)
    speedup = object_s / packed_s if packed_s else 0.0

    per_query = 1e3 / len(queries)
    lines = [
        f"packed perf smoke — uniform n={args.n}, {args.queries} queries, "
        f"k={args.k}, page_size={args.page_size} (fanout {tree.max_entries})",
        f"  parity     {len(queries) - mismatches}/{len(queries)} queries "
        f"identical (results + stats)",
        f"  object     {object_s * per_query:8.4f} ms/q",
        f"  packed     {packed_s * per_query:8.4f} ms/q",
        f"  speedup    {speedup:8.2f}x (threshold {args.min_speedup}x)",
    ]
    code = 0
    if mismatches:
        lines.append(f"FAIL: {mismatches} queries diverged from the object kernel")
        code = 1
    if speedup < args.min_speedup:
        lines.append(
            f"FAIL: speedup {speedup:.2f}x below threshold {args.min_speedup}x"
        )
        code = 1
    if code == 0:
        lines.append("PASS")
    return "\n".join(lines), code


def _batch_command(args: argparse.Namespace) -> tuple:
    """Batch-kernel smoke: bit-parity first, then a windowed speedup gate.

    Parity is the strong form — every window member must match the solo
    best-first kernel on payloads, squared distances, *and* statistics
    counters, on both the vectorized and the pure-python path.  Timing
    interleaves the solo loop and the batched traversals (best-of-N
    each) so CPU noise lands on both sides equally; the gate applies to
    the default path (numpy when importable), with the fallback ratio
    reported alongside.
    """
    from repro.bench.harness import build_tree, points_as_items
    from repro.datasets.queries import query_points_uniform
    from repro.datasets.synthetic import uniform_points
    from repro.packed.batch import NUMPY_AVAILABLE, packed_nearest_batch
    from repro.packed.kernels import packed_nearest_best_first
    from repro.packed.layout import PackedTree
    from repro.storage.pager import PageModel

    points = uniform_points(args.n, seed=args.seed)
    queries = query_points_uniform(args.queries, seed=args.seed + 1)
    tree = build_tree(
        points_as_items(points),
        page_model=PageModel(page_size=args.page_size),
    )
    ptree = PackedTree.from_tree(tree)
    k, eps = args.k, args.epsilon
    windows = [
        queries[i : i + args.window]
        for i in range(0, len(queries), args.window)
    ]

    modes = [False] + ([True] if NUMPY_AVAILABLE else [])
    mismatches = 0
    solo_results = [
        packed_nearest_best_first(ptree, q, k=k, epsilon=eps)
        for q in queries
    ]
    for vectorize in modes:
        cursor = 0
        for window in windows:
            batched = packed_nearest_batch(
                ptree, window, k=k, epsilon=eps, vectorize=vectorize
            )
            for b_nb, b_stats in batched:
                s_nb, s_stats = solo_results[cursor]
                cursor += 1
                if (
                    [nb.payload for nb in b_nb] != [nb.payload for nb in s_nb]
                    or [nb.distance_squared for nb in b_nb]
                    != [nb.distance_squared for nb in s_nb]
                    or b_stats != s_stats
                ):
                    mismatches += 1

    solo_s = default_s = fallback_s = float("inf")
    for _ in range(args.reps):
        start = time.perf_counter()
        for q in queries:
            packed_nearest_best_first(ptree, q, k=k, epsilon=eps)
        solo_s = min(solo_s, time.perf_counter() - start)
        start = time.perf_counter()
        for window in windows:
            packed_nearest_batch(ptree, window, k=k, epsilon=eps)
        default_s = min(default_s, time.perf_counter() - start)
        start = time.perf_counter()
        for window in windows:
            packed_nearest_batch(
                ptree, window, k=k, epsilon=eps, vectorize=False
            )
        fallback_s = min(fallback_s, time.perf_counter() - start)
    speedup = solo_s / default_s if default_s else 0.0
    fallback_speedup = solo_s / fallback_s if fallback_s else 0.0

    per_query = 1e3 / len(queries)
    path = "numpy" if NUMPY_AVAILABLE else "python fallback"
    lines = [
        f"batch kernel smoke — uniform n={args.n}, {len(queries)} queries "
        f"in windows of {args.window}, k={k}, epsilon={eps}, "
        f"page_size={args.page_size} (fanout {tree.max_entries})",
        f"  parity       {len(queries) * len(modes) - mismatches}"
        f"/{len(queries) * len(modes)} window members bit-identical "
        f"to the solo kernel (results + stats, both paths)",
        f"  solo         {solo_s * per_query:8.4f} ms/q",
        f"  batched      {default_s * per_query:8.4f} ms/q "
        f"({path}; {speedup:.2f}x)",
        f"  fallback     {fallback_s * per_query:8.4f} ms/q "
        f"({fallback_speedup:.2f}x)",
    ]
    code = 0
    if mismatches:
        lines.append(
            f"FAIL: {mismatches} window members diverged from the solo kernel"
        )
        code = 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        lines.append(
            f"FAIL: speedup {speedup:.2f}x below threshold "
            f"{args.min_speedup}x"
        )
        code = 1
    if code == 0:
        lines.append("PASS")
    return "\n".join(lines), code


def _obs_command(args: argparse.Namespace) -> tuple:
    """Disabled-tracer overhead gate on the packed DFS hot path.

    Three interleaved best-of-N timings: the raw kernel with the dispatch
    layer peeled off (the floor), the public entry point with
    ``trace=None`` (what every production query pays — validation, kernel
    dispatch, and the ``trace is None`` test), and the public entry point
    with tracing enabled (forensics price, reported but not gated).  The
    gate holds disabled/floor to ``--gate``; a traced 2-D query runs the
    general instrumented loop instead of the hook-free 2-D one, so
    enabling tracing can never slow the untraced path.
    """
    from repro.bench.harness import build_tree, kernel_floor, points_as_items
    from repro.datasets.queries import query_points_uniform
    from repro.datasets.synthetic import uniform_points
    from repro.obs.trace import Trace
    from repro.packed.kernels import packed_nearest_dfs
    from repro.packed.layout import PackedTree

    points = uniform_points(args.n, seed=args.seed)
    queries = query_points_uniform(args.queries, seed=args.seed + 1)
    tree = build_tree(points_as_items(points))
    ptree = PackedTree.from_tree(tree)
    k = args.k

    def kernel_only():
        kernel_floor(ptree, queries, k)

    def disabled():
        for q in queries:
            packed_nearest_dfs(ptree, q, k=k)

    def traced():
        for q in queries:
            packed_nearest_dfs(ptree, q, k=k, trace=Trace())

    floor_s = disabled_s = traced_s = float("inf")
    for _ in range(args.reps):
        start = time.perf_counter()
        kernel_only()
        floor_s = min(floor_s, time.perf_counter() - start)
        start = time.perf_counter()
        disabled()
        disabled_s = min(disabled_s, time.perf_counter() - start)
        start = time.perf_counter()
        traced()
        traced_s = min(traced_s, time.perf_counter() - start)

    probe = Trace()
    packed_nearest_dfs(ptree, queries[0], k=k, trace=probe)

    overhead = disabled_s / floor_s if floor_s else 0.0
    per_query = 1e3 / len(queries)
    lines = [
        f"tracer overhead smoke — uniform n={args.n}, {args.queries} "
        f"queries, k={k} (fanout {tree.max_entries})",
        f"  kernel only          {floor_s * per_query:8.4f} ms/q",
        f"  public trace=None    {disabled_s * per_query:8.4f} ms/q "
        f"({overhead:.3f}x of floor, gate {args.gate}x)",
        f"  public traced        {traced_s * per_query:8.4f} ms/q "
        f"({traced_s / floor_s:.2f}x, {len(probe.events)} events/query)",
    ]
    code = 0
    if overhead > args.gate:
        lines.append(
            f"FAIL: disabled-tracer overhead {overhead:.3f}x exceeds "
            f"gate {args.gate}x"
        )
        code = 1
    else:
        lines.append("PASS")
    return "\n".join(lines), code


def _resilience_command(args: argparse.Namespace) -> tuple:
    """Budget-check overhead gate plus a seeded mini chaos soak.

    Three interleaved best-of-N timings mirror ``repro.bench obs``: the
    raw kernel floor, the public entry point with ``budget=None`` (what
    every production query pays for cancellability it is not using —
    one ``budget is None`` test), and the public entry point with a
    loose page budget (the general instrumented loop charges a clock per
    node visit; reported, not gated).  The gate holds unbudgeted/floor to
    ``--gate``.  Then a short seeded soak (``python -m repro.chaos``
    semantics) must PASS: every certified answer sound, accounting
    conserved, workers drained.
    """
    from repro.bench.harness import build_tree, kernel_floor, points_as_items
    from repro.core.budget import Budget
    from repro.datasets.queries import query_points_uniform
    from repro.datasets.synthetic import uniform_points
    from repro.packed.kernels import packed_nearest_dfs
    from repro.packed.layout import PackedTree

    points = uniform_points(args.n, seed=args.seed)
    queries = query_points_uniform(args.queries, seed=args.seed + 1)
    tree = build_tree(points_as_items(points))
    ptree = PackedTree.from_tree(tree)
    k = args.k
    loose = Budget(max_pages=1_000_000_000)

    def kernel_only():
        kernel_floor(ptree, queries, k)

    def no_budget():
        for q in queries:
            packed_nearest_dfs(ptree, q, k=k)

    def budgeted():
        for q in queries:
            packed_nearest_dfs(ptree, q, k=k, budget=loose)

    floor_s = plain_s = budget_s = float("inf")
    for _ in range(args.reps):
        start = time.perf_counter()
        kernel_only()
        floor_s = min(floor_s, time.perf_counter() - start)
        start = time.perf_counter()
        no_budget()
        plain_s = min(plain_s, time.perf_counter() - start)
        start = time.perf_counter()
        budgeted()
        budget_s = min(budget_s, time.perf_counter() - start)

    overhead = plain_s / floor_s if floor_s else 0.0
    per_query = 1e3 / len(queries)
    lines = [
        f"budget overhead smoke — uniform n={args.n}, {args.queries} "
        f"queries, k={k} (fanout {tree.max_entries})",
        f"  kernel only          {floor_s * per_query:8.4f} ms/q",
        f"  public budget=None   {plain_s * per_query:8.4f} ms/q "
        f"({overhead:.3f}x of floor, gate {args.gate}x)",
        f"  public loose budget  {budget_s * per_query:8.4f} ms/q "
        f"({budget_s / floor_s:.2f}x; clock charged per node visit)",
    ]
    code = 0
    if overhead > args.gate:
        lines.append(
            f"FAIL: unbudgeted overhead {overhead:.3f}x exceeds "
            f"gate {args.gate}x"
        )
        code = 1

    if args.soak_queries > 0:
        from repro.chaos import ChaosConfig, run_soak

        report = run_soak(
            ChaosConfig(seed=args.seed + 17, queries=args.soak_queries)
        )
        lines.append("")
        lines.append(report.render())
        if not report.passed:
            code = 1
    elif code == 0:
        lines.append("PASS")
    return "\n".join(lines), code


def _shard_command(args: argparse.Namespace) -> tuple:
    """Sharded-engine smoke: parity, leak contract, core-aware scaling.

    Three checks, two of them unconditional: (1) every answer from the
    multi-process :class:`~repro.shard.ShardedQueryEngine` must match
    the thread engine bit-for-bit (payloads *and* distances — the
    cross-process merge reuses the kernels' tie discipline, so nothing
    weaker is acceptable); (2) after ``close()`` no shared-memory
    segment with the engine's name prefix may remain under ``/dev/shm``.
    The scaling gate (3) is core-aware: multi-process QPS cannot beat a
    GIL-bound engine on a single visible CPU, so by default the ratio
    is only gated when the host exposes more CPUs than ``--shards``;
    CI pins an explicit ``--min-scaling`` for its runner class.
    """
    import glob
    import os

    from repro.bench.harness import build_tree, points_as_items
    from repro.datasets.queries import query_points_uniform
    from repro.datasets.synthetic import uniform_points
    from repro.service.engine import QueryEngine
    from repro.service.options import EngineOptions
    from repro.shard import ShardedQueryEngine

    points = uniform_points(args.n, seed=args.seed)
    queries = query_points_uniform(args.queries, seed=args.seed + 1)
    items = points_as_items(points)
    tree = build_tree(items)
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else (os.cpu_count() or 1)
    k = args.k

    thread = QueryEngine(
        tree,
        options=EngineOptions(workers=args.shards, cache_size=0, packed=True),
    )
    sharded = ShardedQueryEngine(
        items=items,
        shards=args.shards,
        options=EngineOptions(workers=1, cache_size=0),
    )
    prefix = sharded.name_prefix
    try:
        mismatches = 0
        for q in queries:
            expect = thread.query(q, k=k)
            got = sharded.query(q, k=k)
            if [(nb.payload, nb.distance) for nb in got.neighbors] != [
                (nb.payload, nb.distance) for nb in expect.neighbors
            ]:
                mismatches += 1

        def drain(engine) -> float:
            start = time.perf_counter()
            for fut in [engine.submit(q, k=k) for q in queries]:
                fut.result()
            return time.perf_counter() - start

        thread_s = sharded_s = float("inf")
        for _ in range(args.reps):
            thread_s = min(thread_s, drain(thread))
            sharded_s = min(sharded_s, drain(sharded))
        shard_stats = sharded.stats()
    finally:
        thread.close()
        sharded.close()

    leaked = (
        glob.glob(f"/dev/shm/{prefix}*")
        if os.path.isdir("/dev/shm")
        else []
    )
    scaling = thread_s / sharded_s if sharded_s else 0.0
    gate = args.min_scaling
    if gate is None and cpus > args.shards:
        gate = 1.1

    per_query = 1e3 / len(queries)
    lines = [
        f"sharded engine smoke — uniform n={args.n}, {args.queries} "
        f"queries, k={k}, {args.shards} shards, {cpus} CPU(s) visible",
        f"  parity     {len(queries) - mismatches}/{len(queries)} answers "
        f"identical to the thread engine (payloads + distances)",
        f"  thread     {thread_s * per_query:8.4f} ms/q "
        f"({len(queries) / thread_s:,.0f} q/s, {args.shards} pool workers)",
        f"  sharded    {sharded_s * per_query:8.4f} ms/q "
        f"({len(queries) / sharded_s:,.0f} q/s, {args.shards} processes, "
        f"{shard_stats.shards_pruned} shard visits pruned)",
        f"  scaling    {scaling:8.2f}x "
        + (
            f"(threshold {gate}x)"
            if gate is not None
            else f"(not gated: {cpus} CPU(s) for {args.shards} workers "
            f"+ merge; pass --min-scaling to force)"
        ),
        f"  segments   {len(leaked)} leaked under /dev/shm ({prefix}*)",
    ]
    code = 0
    if mismatches:
        lines.append(
            f"FAIL: {mismatches} answers diverged from the thread engine"
        )
        code = 1
    if leaked:
        lines.append(
            "FAIL: shared-memory segments leaked: "
            + ", ".join(os.path.basename(p) for p in leaked)
        )
        code = 1
    if gate is not None and scaling < gate:
        lines.append(
            f"FAIL: scaling {scaling:.2f}x below threshold {gate}x"
        )
        code = 1
    if code == 0:
        lines.append("PASS")
    return "\n".join(lines), code


def _server_command(args: argparse.Namespace) -> tuple:
    """Front-door soak smoke: coalescing off vs on, soundness gated.

    Each repetition boots a fresh server+engine per mode (the server's
    drain closes its engine) and floods it through
    :func:`repro.server.soak.run_soak`, which certifies **every** HTTP
    200 against a precomputed linear-scan oracle and reconciles the
    client ledger against the server's own metrics — so this smoke
    fails on unsound answers, dropped requests, leaked connections or
    stranded coalescer entries regardless of how fast the box is.
    Modes are interleaved and the best repetition per mode is kept (the
    same noise discipline as ``shard``/``obs``); the resulting
    coalesced/direct QPS ratio is only gated when ``--min-speedup`` is
    given, because wall-clock throughput on a shared runner is noisy —
    the committed E19 baseline carries the tentpole's 1.5x gate.
    """
    import os

    from repro.baselines.linear_scan import linear_scan_items
    from repro.bench.harness import points_as_items
    from repro.datasets.queries import query_points_uniform
    from repro.datasets.synthetic import uniform_points
    from repro.server.soak import run_soak
    from repro.service.options import EngineOptions
    from repro.shard import ShardedQueryEngine

    points = uniform_points(args.n, seed=args.seed)
    items = points_as_items(points)
    queries = query_points_uniform(args.queries, seed=args.seed + 1)
    exact = [linear_scan_items(items, q, k=args.k) for q in queries]
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else (os.cpu_count() or 1)

    def _soak(coalesce: bool):
        return run_soak(
            ShardedQueryEngine(
                items=items,
                shards=args.shards,
                options=EngineOptions(workers=1, cache_size=0),
            ),
            connections=args.connections,
            requests_per_connection=args.requests,
            points=queries,
            exact=exact,
            k=args.k,
            coalesce=coalesce,
            max_wait_ms=args.max_wait_ms,
            max_batch=args.max_batch,
        )

    best = {False: None, True: None}
    violations: List[str] = []
    for _ in range(args.reps):
        for mode in (False, True):
            report = _soak(mode)
            violations.extend(report.violations)
            if best[mode] is None or report.qps > best[mode].qps:
                best[mode] = report

    direct, coalesced = best[False], best[True]
    speedup = coalesced.qps / direct.qps if direct.qps else 0.0
    requests = args.connections * args.requests
    lines = [
        f"serving front door soak — uniform n={args.n}, "
        f"{args.connections} connections x {args.requests} requests, "
        f"k={args.k}, {args.shards} shard(s), {cpus} CPU(s) visible",
        f"  direct     {direct.qps:8,.0f} q/s  "
        f"p50 {direct.p50_ms:6.2f} ms  p99 {direct.p99_ms:7.2f} ms  "
        f"({direct.certified}/{requests} certified)",
        f"  coalesced  {coalesced.qps:8,.0f} q/s  "
        f"p50 {coalesced.p50_ms:6.2f} ms  p99 {coalesced.p99_ms:7.2f} ms  "
        f"({coalesced.certified}/{requests} certified, "
        f"{coalesced.coalesced_responses} responses coalesced, "
        f"largest batch {coalesced.coalescer.get('largest_batch', 0)})",
        f"  speedup    {speedup:8.2f}x "
        + (
            f"(threshold {args.min_speedup}x)"
            if args.min_speedup is not None
            else "(not gated; pass --min-speedup to gate)"
        ),
    ]
    code = 0
    if violations:
        for v in violations[:8]:
            lines.append(f"FAIL: {v}")
        code = 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        lines.append(
            f"FAIL: coalescing speedup {speedup:.2f}x below threshold "
            f"{args.min_speedup}x"
        )
        code = 1
    if code == 0:
        lines.append("PASS")
    return "\n".join(lines), code


def _spans_command(args: argparse.Namespace) -> tuple:
    """Span-tracing overhead gate on the serving front door.

    Three interleaved best-of-N soaks through real sockets: the front
    door with tracing compiled out (``ServerConfig(spans=False)`` — the
    pre-span serving path and the floor), armed but idle
    (``span_sample=0.0`` — what every production request pays: one
    sampler decision and ``None`` checks down the stack), and fully
    sampled (``span_sample=1.0`` — every request records its span tree;
    reported, not gated).  The gate holds armed-idle/floor to
    ``--gate``; every soak is still oracle-certified and
    ledger-reconciled, so a fast-but-wrong mode cannot pass.
    """
    import os

    from repro.baselines.linear_scan import linear_scan_items
    from repro.bench.harness import build_tree, points_as_items
    from repro.datasets.queries import query_points_uniform
    from repro.datasets.synthetic import uniform_points
    from repro.server.soak import run_soak
    from repro.service.engine import QueryEngine
    from repro.service.options import EngineOptions

    points = uniform_points(args.n, seed=args.seed)
    items = points_as_items(points)
    tree = build_tree(items)
    queries = query_points_uniform(args.queries, seed=args.seed + 1)
    exact = [linear_scan_items(items, q, k=args.k) for q in queries]
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else (os.cpu_count() or 1)

    modes = (("off", False, 0.0), ("armed", True, 0.0), ("full", True, 1.0))

    def _soak(spans: bool, sample: float):
        # Thread engine, no coalescing: the span instrumentation rides
        # the per-request path (front door -> engine -> kernel), so
        # that is the path the gate must time.
        return run_soak(
            QueryEngine(
                tree, options=EngineOptions(workers=2, cache_size=0)
            ),
            connections=args.connections,
            requests_per_connection=args.requests,
            points=queries,
            exact=exact,
            k=args.k,
            coalesce=False,
            spans=spans,
            span_sample=sample,
            span_seed=args.seed,
        )

    best = {label: None for label, _, _ in modes}
    violations: List[str] = []
    for _ in range(args.reps):
        for label, spans, sample in modes:
            report = _soak(spans, sample)
            violations.extend(report.violations)
            if best[label] is None or report.qps > best[label].qps:
                best[label] = report

    floor, armed, full = best["off"], best["armed"], best["full"]
    overhead = floor.qps / armed.qps if armed.qps else float("inf")
    requests = args.connections * args.requests
    lines = [
        f"span overhead smoke — uniform n={args.n}, "
        f"{args.connections} connections x {args.requests} requests, "
        f"k={args.k}, {cpus} CPU(s) visible",
        f"  spans=False          {floor.qps:8,.0f} q/s  "
        f"p50 {floor.p50_ms:6.2f} ms  p99 {floor.p99_ms:7.2f} ms  "
        f"({floor.certified}/{requests} certified)",
        f"  armed, sample=0.0    {armed.qps:8,.0f} q/s  "
        f"p50 {armed.p50_ms:6.2f} ms  p99 {armed.p99_ms:7.2f} ms  "
        f"({overhead:.3f}x of floor, gate {args.gate}x)",
        f"  sampled, sample=1.0  {full.qps:8,.0f} q/s  "
        f"p50 {full.p50_ms:6.2f} ms  p99 {full.p99_ms:7.2f} ms  "
        f"({floor.qps / full.qps if full.qps else 0.0:.2f}x)",
    ]
    code = 0
    if violations:
        for v in violations[:8]:
            lines.append(f"FAIL: {v}")
        code = 1
    if overhead > args.gate:
        lines.append(
            f"FAIL: sampling-off span overhead {overhead:.3f}x exceeds "
            f"gate {args.gate}x"
        )
        code = 1
    if code == 0:
        lines.append("PASS")
    return "\n".join(lines), code


def _viz_command(args: argparse.Namespace) -> str:
    from repro.core.query import nearest
    from repro.datasets.synthetic import (
        gaussian_clusters,
        skewed_points,
        uniform_points,
    )
    from repro.rtree.svg import save_svg
    from repro.rtree.tree import RTree

    generators = {
        "uniform": uniform_points,
        "clustered": gaussian_clusters,
        "skewed": skewed_points,
    }
    points = generators[args.dataset](args.n, seed=args.seed)
    tree = RTree(max_entries=8, split=args.split)
    for i, point in enumerate(points):
        tree.insert(point, payload=i)
    query = (500.0, 500.0)
    result = nearest(tree, query, k=args.k)
    save_svg(tree, args.svg_path, query=query, neighbors=result)
    return (
        f"Wrote {args.svg_path}: {len(tree)} {args.dataset} points, "
        f"{tree.node_count} nodes ({args.split} split), query at {query} "
        f"with its {len(result)} nearest marked."
    )


def _list_command() -> str:
    lines = ["Registered experiments:", ""]
    for key in sorted(EXPERIMENTS):
        experiment = EXPERIMENTS[key]
        lines.append(f"  {experiment.id}  {experiment.title}")
        lines.append(f"      {experiment.paper_ref}")
    return "\n".join(lines)


def _engine_command(args: argparse.Namespace) -> tuple:
    from repro.bench.harness import build_tree, points_as_items
    from repro.core.config import QueryConfig
    from repro.core.query import nearest
    from repro.datasets.queries import query_points_clustered_sessions
    from repro.datasets.synthetic import gaussian_clusters, uniform_points
    from repro.service.engine import QueryEngine

    generator = (
        gaussian_clusters if args.dataset == "clustered" else uniform_points
    )
    data = generator(args.n, seed=args.seed)
    queries = query_points_clustered_sessions(
        args.queries, data, distinct=args.distinct, seed=args.seed + 1
    )
    tree = build_tree(points_as_items(data))
    config = QueryConfig(k=args.k)

    start = time.perf_counter()
    for q in queries:
        nearest(tree, q, config=config)
    sequential = time.perf_counter() - start

    with QueryEngine(
        tree,
        config=config,
        workers=args.workers,
        cache_size=args.cache,
        buffer_pages=args.buffer_pages,
    ) as engine:
        start = time.perf_counter()
        engine.query_batch(queries)
        elapsed = time.perf_counter() - start
        stats = engine.stats()

    lines = [
        f"QueryEngine demo — {args.dataset} n={args.n}, "
        f"{args.queries} queries ({args.distinct} distinct), k={args.k}",
        "",
        stats.render(),
        "",
        f"sequential loop    {args.queries / sequential:>12,.0f} q/s "
        f"({sequential:.2f}s)",
        f"engine             {args.queries / elapsed:>12,.0f} q/s "
        f"({elapsed:.2f}s, {args.workers} workers)",
        f"speedup            {sequential / elapsed:>12.2f}x",
    ]
    code = 0
    if args.expect_hits and stats.cache_hits == 0:
        lines.append("FAIL: expected cache hits on a clustered workload, got 0")
        code = 1
    return "\n".join(lines), code


def _scrub_command(args: argparse.Namespace) -> tuple:
    from repro.errors import PageFileError
    from repro.rtree.scrub import scrub

    try:
        report = scrub(args.file, page_size=args.page_size)
    except PageFileError as exc:
        return f"scrub: cannot read {args.file!r}: {exc}", 1
    return report.render(), 0 if report.clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    code = 0
    if args.command == "list":
        output = _list_command()
    elif args.command == "viz":
        output = _viz_command(args)
    elif args.command == "scrub":
        output, code = _scrub_command(args)
    elif args.command == "engine":
        output, code = _engine_command(args)
    elif args.command == "packed":
        output, code = _packed_command(args)
    elif args.command == "batch":
        output, code = _batch_command(args)
    elif args.command == "obs":
        output, code = _obs_command(args)
    elif args.command == "resilience":
        output, code = _resilience_command(args)
    elif args.command == "shard":
        output, code = _shard_command(args)
    elif args.command == "server":
        output, code = _server_command(args)
    elif args.command == "spans":
        output, code = _spans_command(args)
    elif args.command == "audit":
        from repro.audit.__main__ import run_from_args

        return run_from_args(args)
    elif args.command == "report":
        from repro.bench.report import generate_report

        output = generate_report(Scale.by_name(args.scale), args.only)
    else:
        output = _run_command(args)
    print(output)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(output + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
