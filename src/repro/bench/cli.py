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

    run = sub.add_parser("run", help="run one experiment or 'all'")
    run.add_argument("experiment", help="experiment id (E1..E14) or 'all'")
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
    pipeline, not a CI assertion (the assertions live in the tier-1
    tests and in ``benchmarks/``, with deliberate margins).
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
    from repro.service.options import EngineOptions

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
        options=EngineOptions(
            workers=args.workers,
            cache_size=args.cache,
            buffer_pages=args.buffer_pages,
        ),
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
