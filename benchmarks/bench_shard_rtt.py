"""Shard round-trip attribution: where one sharded query's microseconds go.

``perf/``'s ``shard_proc`` workload reports one number per query and the
ladder brackets the pipe from outside (``shard.ipc_self_ms`` = process -
inline).  This script walks the path itself, stop by stop, for the same
shape (n = 200,000 uniform points, fanout 113, k = 10 best-first, 2
process shards): the request pickle, the pipe, the kernel, the reply
codec, the reader thread's wake-up of the caller, the merge.  Each stop
is timed on its own; their sum is then held against the measured
``engine.query`` median, and what is left over is the part of a query
nobody has attributed yet — the starting point for any pipe work.

A measuring instrument, not a gate: it asserts nothing about time.

    PYTHONPATH=src python benchmarks/bench_shard_rtt.py            # n = 200,000
    PYTHONPATH=src python benchmarks/bench_shard_rtt.py --smoke    # n = 20,000
"""

from __future__ import annotations

import argparse
import gc
import multiprocessing
import os
import pickle
import statistics
import sys
import time
from typing import Any, List, Sequence, Tuple

from bench_cold_start import CONFIG, MAX_ENTRIES, OPTIONS, SHARDS, Phases, host_stamp

from repro import ShardedQueryEngine
from repro.core.metrics import mindist_squared
from repro.datasets import uniform_points
from repro.geometry.rect import Rect
from repro.packed import kernels
from repro.packed.batch import run_packed_batch
from repro.shard.slab import attach_slab
from repro.shard.wire import flatten_result


#: One row is read back by name twice (out and back) when the stops are summed.
PIPE = "pipe one way (echo RTT / 2, reply-sized)"


class Stops(Phases):
    """Microseconds per named stop, one sample per query, with quartiles."""

    def add(self, name: str, seconds: float) -> None:
        super().add(name, seconds * 1e6)

    def report(self) -> None:
        for name, values in self.samples.items():
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(
                f"  {name:44s} {statistics.median(values):8.1f} us"
                f"   (quartiles {q1:.1f}..{q3:.1f}, n={len(values)})"
            )


def _echo(conn: Any) -> None:
    """Child of :func:`pipe_one_way`: send back whatever arrives."""
    try:
        while True:
            conn.send_bytes(conn.recv_bytes())
    except EOFError:
        pass


def pipe_one_way(payload: bytes, rounds: int, stops: Stops) -> None:
    """Half an echo round trip on an otherwise idle pipe to a child process.

    The parent blocks in ``recv_bytes`` itself, so this is the pipe and
    the process switch only — no pickle, no reader thread, no future.
    """
    parent, child = multiprocessing.Pipe()
    proc = multiprocessing.Process(target=_echo, args=(child,), daemon=True)
    proc.start()
    child.close()
    try:
        for _ in range(rounds):
            started = time.perf_counter()
            parent.send_bytes(payload)
            parent.recv_bytes()
            stops.add(PIPE, (time.perf_counter() - started) / 2.0)
    finally:
        parent.close()
        proc.join(timeout=10.0)


def walk(engine: ShardedQueryEngine, queries: Sequence[Any], stops: Stops) -> Tuple[bytes, int]:
    """Time every stop of a one-shard visit, query by query.

    Returns the last pickled reply (the payload :func:`pipe_one_way`
    echoes) and how many kernel stops the packed kernel's selection sent
    to the numpy block rather than the solo loop.
    """
    handles = engine._handles
    # The worker's own view of each shard: a zero-copy attach of the
    # segments the engine published.
    attached = [attach_slab(slab.manifest) for slab in engine._slabs]
    reply_bytes = b""
    blocks = 0
    try:
        for rid, point in enumerate(queries, 1):
            window = [point]
            near = min(
                range(len(handles)),
                key=lambda i: mindist_squared(point, handles[i].mbr),
            )
            request = ("query", rid, window, CONFIG)
            wire = stops.time("request pickle.dumps", lambda: pickle.dumps(request))
            stops.time("request pickle.loads (worker)", lambda: pickle.loads(wire))
            blocks += kernels._select_block(attached[near].ptree) is not None
            (result,) = stops.time(
                "kernel (nearest shard, window of one)",
                lambda: run_packed_batch(attached[near].ptree, window, CONFIG),
            )
            flat = stops.time("flatten_result", lambda: flatten_result(result))
            reply = ("ok", rid, [flat])
            reply_bytes = stops.time("reply pickle.dumps (worker)", lambda: pickle.dumps(reply))
            stops.time("reply pickle.loads (reader thread)", lambda: pickle.loads(reply_bytes))

            # The real handle: its worker process, reader thread, locks
            # and Future.  A done-callback runs in the reader thread at
            # set_result, so the gap to result() returning here is the
            # cross-thread wake and nothing else.
            woke: List[float] = []
            started = time.perf_counter()
            fut = handles[near].submit(window, CONFIG)
            fut.add_done_callback(lambda _: woke.append(time.perf_counter()))
            fut.result()
            returned = time.perf_counter()
            stops.add("reader-thread wake -> Future.result() returns", returned - woke[0])
            stops.add("= one shard RTT, measured (submit -> result)", returned - started)

            far = (near + 1) % len(handles)
            other = handles[far].submit(window, CONFIG).result()[0]
            stops.time("_merge of 1 reply", lambda: engine._merge(CONFIG, [(near, flat)], [], []))
            stops.time(
                "_merge of 2 replies",
                lambda: engine._merge(CONFIG, [(near, flat), (far, other)], [], []),
            )
            stops.time("= engine.query, measured", lambda: engine.query(point))
    finally:
        for slab in attached:
            slab.close()
    return reply_bytes, blocks


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="n = 20,000, 300 queries")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    n, rounds = (20_000, 300) if args.smoke else (200_000, 3_000)
    print(f"shard round-trip attribution: n={n} queries={rounds} shards={SHARDS} {host_stamp()}")
    # Measure the regime ``shard_proc`` measures: perf/ seats its whole
    # process tree on one CPU, where a hand-over to a worker is a context
    # switch and not the wake-up of a halted CPU (tens to hundreds of
    # microseconds on a shared host).  Children inherit the seat.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("pinned to one CPU, as perf/ pins shard_proc")
    items = [(Rect.from_point(p), i) for i, p in enumerate(uniform_points(n, seed=args.seed))]
    queries = uniform_points(rounds, seed=args.seed + 7)
    stops = Stops()
    with ShardedQueryEngine(
        items=items, shards=SHARDS, config=CONFIG, options=OPTIONS,
        processes=True, max_entries=MAX_ENTRIES,
    ) as engine:
        for point in queries[:50]:
            engine.query(point)  # warm the workers and the allocator
        gc.collect()
        gc.freeze()  # perf/'s GC policy: set-up is frozen, GC stays on
        before = engine.stats()
        reply_bytes, blocks = walk(engine, queries, stops)
        after = engine.stats()
        mean = statistics.fmean(
            slab.manifest.entry_count / slab.manifest.node_count for slab in engine._slabs
        )
    pipe_one_way(reply_bytes, rounds, stops)
    stops.report()
    print(
        f"\nkernel stop: the numpy block in {blocks} of {rounds} queries, the solo loop"
        f" in the rest (shards' mean entries/node {mean:.1f}; the block needs"
        f" >= {kernels._BLOCK_MIN_FANOUT} and < {1e3 * kernels._BLOCK_WARM_S:g} ms"
        " since the process's previous query)"
    )

    visits = (after.shards_queried - before.shards_queried) / (after.executed - before.executed)
    in_rtt = (
        "request pickle.dumps", PIPE, "request pickle.loads (worker)",
        "kernel (nearest shard, window of one)", "flatten_result",
        "reply pickle.dumps (worker)", PIPE, "reply pickle.loads (reader thread)",
        "reader-thread wake -> Future.result() returns",
    )
    rtt_sum = sum(stops.median(name) for name in in_rtt)
    rtt = stops.median("= one shard RTT, measured (submit -> result)")
    total = rtt_sum + stops.median("_merge of 1 reply")
    query = stops.median("= engine.query, measured")
    print(f"\none shard RTT: stops sum to {rtt_sum:.1f} us of {rtt:.1f} us measured;"
          f" unexplained in the handle {rtt - rtt_sum:.1f} us")
    print(f"engine.query (median, {visits:.2f} shard visits/query): stops + _merge of 1 ="
          f" {total:.1f} us of {query:.1f} us measured;"
          f" unexplained remainder {query - total:.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
