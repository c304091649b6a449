"""Cold-start attribution: where the seconds of a boot go, phase by phase.

``perf/`` reports one number for a cold start (``setup_s``) and three
ladder rungs inside it; this script prints the whole split, for the
library shape (points -> ``Rect.from_point`` -> ``bulk_load`` ->
``PackedTree.from_tree`` -> first answer) and for the sharded boot
(``plan_shards`` -> per-shard ``bulk_load`` + ``from_tree`` ->
``export_slab`` -> worker start -> ready), on the two datasets the
benchmark uses.  The sharded engine is booted through the door the
benchmark uses (``tree=``, on a tree built a moment ago) with the
``items=`` boot beside it — the difference *is* materialising
``tree.items()`` — and then republished under one reader thread, whose
longest query says whether a build stops the world.  Every phase prints
the cyclic collector's collections (young/middle/full) next to its
seconds.  Its last line per dataset is the share of a library cold
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
import threading
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import PackedTree, QueryConfig, QueryEngine, ShardedQueryEngine, bulk_load
from repro.audit.oracle import check_result
from repro.baselines.linear_scan import linear_scan_items
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
#: Distinct points the concurrent reader cycles through (each costs one
#: linear-scan oracle pass up front).
READER_QUERIES = 8
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


def collections() -> List[int]:
    """Collections run so far, per generation (young, middle, full)."""
    return [generation["collections"] for generation in gc.get_stats()]


class Phases:
    """Seconds per named phase, one sample per repeat, in first-seen order."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.units: Dict[str, str] = {}
        #: The collector's work inside a timed phase, last repeat.
        self.collected: Dict[str, List[int]] = {}

    def time(self, name: str, call: Callable[[], Any]) -> Any:
        before = collections()
        started = time.perf_counter()
        result = call()
        self.add(name, time.perf_counter() - started)
        self.collected[name] = [b - a for a, b in zip(before, collections())]
        return result

    def add(self, name: str, value: float, unit: str = "s") -> None:
        self.samples.setdefault(name, []).append(value)
        self.units[name] = unit

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def report(self) -> None:
        for name, values in self.samples.items():
            spread = f"{min(values):.3f}..{max(values):.3f}"
            gcs = self.collected.get(name)
            collected = "" if gcs is None else "  gc " + "/".join(map(str, gcs))
            print(
                f"  {name:42s} {statistics.median(values):8.3f} {self.units[name]:2s}  "
                f"({spread}, n={len(values)}){collected}"
            )


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


def sharded_boot(points: Points, oracle: List[Tuple[Any, Any]], phases: Phases) -> None:
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

    # The door the benchmark uses: a tree built a moment ago (its ~10^6
    # objects still young), handed over as ``tree=``.  Booted first, so
    # the collector meets it as ``perf/workloads.py::ShardProc`` does.
    tree = bulk_load(items, max_entries=MAX_ENTRIES)
    tree.packed()
    in_parent = phases.samples["plan_shards"][-1] + build_s + export_s
    for label, source in (("tree=", {"tree": tree}), ("items=", {"items": items})):
        engine = phases.time(
            f"ShardedQueryEngine boot, {label}",
            lambda: ShardedQueryEngine(
                shards=SHARDS, config=CONFIG, options=OPTIONS, processes=True,
                max_entries=MAX_ENTRIES, **source,
            ),
        )
        try:
            if label == "tree=":
                republish_under_a_reader(engine, oracle, items, phases)
        finally:
            engine.close()
    boot_s = phases.samples["ShardedQueryEngine boot, items="][-1]
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


def republish_under_a_reader(
    engine: ShardedQueryEngine, oracle: List[Tuple[Any, Any]], items: List[Any],
    phases: Phases,
) -> None:
    """``republish(tree=)`` while one thread loops ``engine.query``.

    The next epoch holds the same points under payloads shifted by *n*,
    so each answer says which epoch served it: distances are certified
    against the oracle, payloads must all come from one epoch, and a
    reader never goes back to the old one.
    """
    n = len(items)
    fresh = bulk_load(
        [(rect, payload + n) for rect, payload in items], max_entries=MAX_ENTRIES
    )
    fresh.packed()
    stop = threading.Event()
    seen: List[Tuple[float, float, int, Any]] = []  # started, seconds, query, answer

    def reader() -> None:
        turn = 0
        while not stop.is_set():
            which = turn % len(oracle)
            started = time.perf_counter()
            result = engine.query(oracle[which][0])
            seen.append((started, time.perf_counter() - started, which, result))
            turn += 1

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    while len(seen) < 50:  # warm: the reader's own start-up is not the build's
        time.sleep(0.01)
    begun = time.perf_counter()
    phases.time("republish(tree=), one reader querying", lambda: engine.republish(tree=fresh))
    ended = time.perf_counter()
    stop.set()
    thread.join(30.0)
    # Every query in flight at some point of the republish — the one parked
    # on the write lock returns only after it.
    waits = sorted(
        seconds for started, seconds, _, _ in seen
        if started < ended and started + seconds > begun
    )
    phases.add("  reader's longest query", waits[-1] * 1000.0, "ms")
    phases.add("  reader's p99 query", waits[int(0.99 * (len(waits) - 1))] * 1000.0, "ms")
    phases.add("  reader's queries during it", float(len(waits)), "")
    epochs = []
    for _, _, which, result in seen:
        served = {neighbor.payload >= n for neighbor in result.neighbors}
        query, exact = oracle[which]
        problems = check_result(result.neighbors, query, CONFIG.k, exact, combo="reader")
        if problems or len(served) != 1:
            raise SystemExit(f"reader got an uncertified answer: {problems or served}")
        epochs.append(served.pop())
    if epochs != sorted(epochs) or not epochs[-1]:
        raise SystemExit("reader went back to the old epoch, or never saw the new one")


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="n = 20,000, 2 repeats")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    n, repeats = (20_000, 2) if args.smoke else (200_000, REPEATS)
    print(f"cold start attribution: n={n} repeats={repeats} {host_stamp()}")
    for kind in ("uniform", "clustered"):
        points = dataset(kind, n, args.seed)
        # What the concurrent reader asks, with the exact answers (payloads
        # aside, both epochs hold these points).
        scanned = [(Rect.from_point(p), None) for p in points]
        oracle = [
            (tuple(q), linear_scan_items(scanned, q, k=CONFIG.k))
            for q in points[:READER_QUERIES]
        ]
        del scanned
        library, sharded = Phases(), Phases()
        for _ in range(repeats):
            gc.collect()
            library_boot(points, library)
            gc.collect()
            sharded_boot(points, oracle, sharded)
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
