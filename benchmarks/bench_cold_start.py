"""Cold-start attribution: where the seconds of a boot go, phase by phase.

``perf/`` reports one number for a cold start (``setup_s``) and three
ladder rungs inside it; this script prints the whole split, for the
library shape (points -> ``Rect.from_point`` -> ``bulk_load`` ->
``PackedTree.from_tree`` -> first answer) and for the sharded boot
(``plan_shards`` -> per-shard ``bulk_load`` + ``from_tree`` ->
``export_slab`` -> worker start -> ready), on the two datasets the
benchmark uses.  Its last line per dataset is the share of a library cold
start still spent building the object tree (Entry list + STR tiling +
node MBRs) — the number that says whether building slabs *without* an
object tree is worth its complexity.

A measuring instrument, not a gate: it asserts nothing about time.

    PYTHONPATH=src python benchmarks/bench_cold_start.py            # n = 200,000
    PYTHONPATH=src python benchmarks/bench_cold_start.py --smoke    # n = 20,000
"""

from __future__ import annotations

import argparse
import gc
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import PackedTree, QueryConfig, QueryEngine, ShardedQueryEngine, bulk_load
from repro.datasets import gaussian_clusters, uniform_points
from repro.geometry.rect import Rect
from repro.packed.batch import NUMPY_AVAILABLE
from repro.service.options import EngineOptions
from repro.shard.partition import plan_shards
from repro.shard.slab import attach_slab, export_slab

# The benchmark's shape (perf/workloads.py), restated: this script may
# not import perf/.
MAX_ENTRIES = 113
CONFIG = QueryConfig(k=10, algorithm="best-first")
OPTIONS = EngineOptions(workers=1, cache_size=0, packed=True)
SHARDS = 2
REPEATS = 5
#: The library phases that make up a cold start (``setup_s`` in ``perf/``).
SETUP_PHASES = (
    "Rect.from_point x n", "bulk_load", "PackedTree.from_tree",
    "first answer (engine + one query)",
)

Points = Sequence[Tuple[float, ...]]


def dataset(kind: str, n: int, seed: int) -> Points:
    if kind == "uniform":
        return uniform_points(n, seed=seed)
    return gaussian_clusters(n, clusters=32, spread=20, seed=seed + 1)


def host_stamp() -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return (
        f"cpus={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy_version} numpy_kernel={NUMPY_AVAILABLE}"
    )


class Phases:
    """Seconds per named phase, one sample per repeat, in first-seen order."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}

    def time(self, name: str, call: Callable[[], Any]) -> Any:
        started = time.perf_counter()
        result = call()
        self.add(name, time.perf_counter() - started)
        return result

    def add(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def report(self) -> None:
        for name, values in self.samples.items():
            spread = f"{min(values):.3f}..{max(values):.3f}"
            print(f"  {name:38s} {statistics.median(values):8.3f} s   ({spread}, n={len(values)})")


def library_boot(points: Points, phases: Phases) -> None:
    """What ``lib_*`` pay: the calls of ``perf/workloads.py::build_tree``."""
    items = phases.time(
        "Rect.from_point x n",
        lambda: [(Rect.from_point(p), i) for i, p in enumerate(points)],
    )
    tree = phases.time("bulk_load", lambda: bulk_load(items, max_entries=MAX_ENTRIES))
    phases.time("PackedTree.from_tree", lambda: PackedTree.from_tree(tree))
    tree.packed()  # untimed: the same compile again, cached where the engine looks

    def first_answer() -> Any:
        with QueryEngine(tree, config=CONFIG, options=OPTIONS) as engine:
            return engine.query(points[0])

    phases.time("first answer (engine + one query)", first_answer)
    tree.insert(Rect.from_point(points[0]), len(points))
    phases.time("tree.packed() after one insert", tree.packed)


def sharded_boot(points: Points, phases: Phases) -> None:
    """What ``shard_proc`` pays on top, piece by piece, then for real."""
    items = [(Rect.from_point(p), i) for i, p in enumerate(points)]
    plan = phases.time("plan_shards", lambda: plan_shards(items, SHARDS))
    build_s = export_s = attach_s = 0.0
    for index, group in enumerate(plan.groups):
        started = time.perf_counter()
        shard = PackedTree.from_tree(bulk_load(list(group), max_entries=MAX_ENTRIES))
        built = time.perf_counter()
        slab = export_slab(
            shard, index, plan.mbrs[index], f"repro-shard-cold-{os.getpid():x}-s{index}"
        )
        exported = time.perf_counter()
        try:
            attach_slab(slab.manifest).close()
            attach_s += time.perf_counter() - exported
        finally:
            slab.unlink()
        build_s += built - started
        export_s += exported - built
    phases.add(f"{SHARDS} x (bulk_load + from_tree)", build_s)
    phases.add(f"{SHARDS} x export_slab", export_s)
    phases.add(f"{SHARDS} x attach_slab (in-process)", attach_s)
    del plan, shard, slab

    started = time.perf_counter()
    engine = ShardedQueryEngine(
        items=items, shards=SHARDS, config=CONFIG, options=OPTIONS,
        processes=True, max_entries=MAX_ENTRIES,
    )
    try:
        boot_s = time.perf_counter() - started
    finally:
        engine.close()
    phases.add("ShardedQueryEngine boot, total", boot_s)
    in_parent = phases.samples["plan_shards"][-1] + build_s + export_s
    # Workers are forked where the platform allows, so this is process
    # start + attach + the ready round trip, without an interpreter boot.
    phases.add("  of which worker start -> ready", max(0.0, boot_s - in_parent))
    # What a spawned (non-fork) worker would pay before it can attach.
    phases.time(
        "python -c 'import repro.shard.worker'",
        lambda: subprocess.run(
            [sys.executable, "-c", "import repro.shard.worker"],
            check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        ),
    )


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="n = 20,000, 2 repeats")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    n, repeats = (20_000, 2) if args.smoke else (200_000, REPEATS)
    print(f"cold start attribution: n={n} repeats={repeats} {host_stamp()}")
    for kind in ("uniform", "clustered"):
        points = dataset(kind, n, args.seed)
        library, sharded = Phases(), Phases()
        for _ in range(repeats):
            gc.collect()
            library_boot(points, library)
            gc.collect()
            sharded_boot(points, sharded)
        print(f"\n{kind}: library boot (medians)")
        library.report()
        print(f"{kind}: sharded boot, {SHARDS} shards (medians)")
        sharded.report()
        setup = sum(library.median(name) for name in SETUP_PHASES)
        share = library.median("bulk_load") / setup
        print(
            f"{kind}: object tree (Entry list + tiling + MBRs) = "
            f"{library.median('bulk_load'):.3f} s of a {setup:.3f} s library "
            f"cold start = {share:.0%}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
