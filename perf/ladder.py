"""The layer ladder: each layer of ``src/repro`` timed from outside.

Runs in the ``--trace 1`` pass on the workloads' own datasets and
streams.  Every rung times calls into one layer's public functions; a
layer's *self* time is its rung minus the rung beneath (``*_self_ms``).
Timings are the same median-of-slices p50 the end-to-end metrics use, so
a rung and the workload it explains can be laid side by side.  Counts
(pages, ratios, bytes) are exact and repeat bit for bit at a fixed seed.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import statistics
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro import QueryConfig, QueryEngine, ShardedQueryEngine, bulk_load, nearest
from repro.core.metrics import mindist_squared
from repro.datasets.queries import query_points_uniform
from repro.geometry.rect import Rect
from repro.packed import (
    PackedTree,
    packed_nearest_batch,
    packed_nearest_best_first,
    packed_nearest_dfs,
)
from repro.packed.batch import NUMPY_AVAILABLE
from repro.server.http import read_request, render_response
from repro.service.options import EngineOptions
from repro.shard.partition import plan_shards
from repro.shard.slab import attach_slab, export_slab
from repro.shard.wire import flatten_result, inflate_result

from harness import (
    HttpConn,
    ServerProcess,
    SpanRecorder,
    closed_loop,
    now,
    open_loop,
    percentile,
    scrape,
    segment_median,
    shm_leaks,
)
from workloads import (
    CONFIG,
    K,
    MAX_ENTRIES,
    OPEN_CONNS,
    OPTIONS,
    WINDOW,
    Scale,
    dataset,
    hot_stream,
    items_of,
    json_ok,
    near_windows,
    uniform_stream,
    windows_of,
)

Metrics = Dict[str, Dict[str, Any]]

#: Open-loop sweep, requests per second; the limit a rate must hold.
SWEEP_RATES = (150, 300, 600, 900)
SWEEP_P99_LIMIT_MS = 5.0


def _always(_: Any) -> bool:
    return True


def _p50_ms(call: Callable[[Any], Any], stream: Sequence[Any], ops: int) -> float:
    """p50 latency of ``call`` over the first *ops* of *stream*, in ms."""
    loop = closed_loop(call, stream, _always, ops=ops)
    return 1000.0 * segment_median(loop.latencies, 0.5)


def span_metrics(recorder: SpanRecorder) -> Metrics:
    """What the traced pass of a workload says about the harness itself."""
    ops = sum(1 for span in recorder.spans if span[0] == "op")
    return {
        "span.op_ms": _metric(recorder.median_ms("op"), "ms", ops),
        "span.door_ms": _metric(recorder.median_ms("door"), "ms", ops),
        "span.harness_self_us": _metric(
            1000.0 * recorder.median_ms("op", self_time=True), "us", ops
        ),
    }


def _metric(value: float, unit: str, samples: int) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "samples": samples}


def run_ladder(seed: int, scale: Scale, seconds: float) -> Tuple[Metrics, List[str]]:
    """Every rung; returns ``(metrics, complaints)``."""
    out: Metrics = {}
    complaints: List[str] = []
    solo_ops = max(200, scale.n // 100)
    windows = max(6, scale.n // 8000)

    def put(name: str, value: float, unit: str, samples: int = 1) -> float:
        out[name] = _metric(value, unit, samples)
        return value

    batch = _in_process(seed, scale, solo_ops, windows, put, complaints)
    _front_door(seed, scale, seconds, solo_ops, batch[:windows], put, out, complaints)
    return out, complaints


def _in_process(
    seed: int, scale: Scale, solo_ops: int, windows: int,
    put: Callable[..., float], complaints: List[str],
) -> List[List[Any]]:
    """Every rung that needs no socket; returns the ``Q_near`` windows."""
    points = dataset("uniform", scale.n, seed)
    queries = uniform_stream(scale, seed)
    items = items_of(points)

    # -- rtree / packed: the cold-start pieces --------------------------
    started = now()
    tree = bulk_load(items, max_entries=MAX_ENTRIES)
    put("rtree.bulk_load_s", now() - started, "s")
    started = now()
    ptree = PackedTree.from_tree(tree)
    put("packed.from_tree_s", now() - started, "s")
    put("packed.slab_kib", ptree.nbytes() / 1024.0, "KiB")

    # -- core: the metric call and the paper's object-level DFS ---------
    rects = [rect for rect, _ in items[:1000]]
    point = queries[0]
    blocks = []
    for _ in range(25):
        started = now()
        for rect in rects:
            mindist_squared(point, rect)
        blocks.append((now() - started) / len(rects))
    put("core.mindist_ns", 1e9 * statistics.median(blocks), "ns", 25 * len(rects))

    dfs_ops = max(100, solo_ops // 8)
    for k in (1, K):
        kept: List[Any] = []
        config = QueryConfig(k=k, algorithm="dfs", ordering="mindist")
        loop = closed_loop(
            lambda q: nearest(tree, q, config=config), queries, _always,
            ops=dfs_ops, keep=kept,
        )
        put(
            f"core.object_dfs_pages_k{k}",
            statistics.fmean(r.stats.nodes_accessed for r in kept), "pages", dfs_ops,
        )
        if k == K:
            put("core.object_dfs_ms", 1000.0 * segment_median(loop.latencies, 0.5), "ms", dfs_ops)
            put(
                "core.object_dfs_p3_pruned_k10",
                statistics.fmean(r.stats.pruning.p3_pruned for r in kept),
                "count", dfs_ops,
            )

    # -- packed: the solo kernels ---------------------------------------
    kept = []
    loop = closed_loop(
        lambda q: packed_nearest_best_first(ptree, q, k=K), queries, _always,
        ops=solo_ops, keep=kept,
    )
    kernel_ms = put(
        "packed.best_first_ms", 1000.0 * segment_median(loop.latencies, 0.5), "ms", solo_ops
    )
    put(
        "packed.pages_per_query",
        statistics.fmean(stats.nodes_accessed for _, stats in kept), "pages", solo_ops,
    )
    put(
        "packed.objects_per_query",
        statistics.fmean(stats.objects_examined for _, stats in kept), "count", solo_ops,
    )
    put(
        "packed.dfs_ms",
        _p50_ms(lambda q: packed_nearest_dfs(ptree, q, k=K), queries, solo_ops),
        "ms", solo_ops,
    )

    # -- service: engine dispatch, the result cache ---------------------
    engine = QueryEngine(tree, config=CONFIG, options=OPTIONS)
    query_ms = put("service.query_ms", _p50_ms(engine.query, queries, solo_ops), "ms", solo_ops)
    put("service.query_self_ms", query_ms - kernel_ms, "ms")

    cached = QueryEngine(tree, config=CONFIG, options=EngineOptions(workers=1, packed=True))
    cached.query(point)
    hit_ops = 10 * solo_ops
    put("service.cache_hit_us", 1000.0 * _p50_ms(cached.query, [point], hit_ops), "us", hit_ops)
    cached.close()
    cached = QueryEngine(tree, config=CONFIG, options=EngineOptions(workers=1, packed=True))
    hot = hot_stream(points, scale, seed)[:5 * solo_ops]
    for q in hot:
        cached.query(q)
    put("service.cache_hit_ratio", cached.stats().hit_ratio, "ratio", len(hot))
    cached.close()

    # -- shard: plan, slabs, the wire, inline vs process ----------------
    started = now()
    plan = plan_shards(items, 2)
    put("shard.plan_s", now() - started, "s")
    prefix = f"repro-shard-perf-{os.getpid():x}"
    export_s, attach_ms = 0.0, []
    for index, group in enumerate(plan.groups):
        shard = PackedTree.from_tree(bulk_load(list(group), max_entries=MAX_ENTRIES))
        started = now()
        slab = export_slab(shard, index, plan.mbrs[index], f"{prefix}-s{index}")
        export_s += now() - started
        try:
            started = now()
            attached = attach_slab(slab.manifest)
            attach_ms.append(1000.0 * (now() - started))
            attached.close()
        finally:
            slab.unlink()
    put("shard.export_slab_s", export_s, "s", len(plan.groups))
    put("shard.attach_ms", statistics.fmean(attach_ms), "ms", len(attach_ms))
    del plan

    sample = engine.query(point)
    put(
        "shard.wire_us",
        1000.0 * _p50_ms(
            lambda r: inflate_result(pickle.loads(pickle.dumps(flatten_result(r)))),
            [sample], solo_ops,
        ),
        "us", solo_ops,
    )

    shard_ops = max(100, solo_ops // 2)
    inline = ShardedQueryEngine(
        tree=tree, shards=2, config=CONFIG, options=OPTIONS, processes=False
    )
    inline_ms = put(
        "shard.inline_query_ms", _p50_ms(inline.query, queries, shard_ops), "ms", shard_ops
    )
    put("shard.inline_self_ms", inline_ms - kernel_ms, "ms")
    inline.close()

    started = now()
    proc = ShardedQueryEngine(
        tree=tree, shards=2, config=CONFIG, options=OPTIONS, processes=True
    )
    put("shard.boot_s", now() - started, "s")
    prefixes = [prefix, proc.name_prefix]
    try:
        proc_ms = put(
            "shard.proc_query_ms", _p50_ms(proc.query, queries, shard_ops), "ms", shard_ops
        )
        put("shard.ipc_self_ms", proc_ms - inline_ms, "ms")
        put("shard.pruned_ratio", proc.stats().prune_ratio, "ratio", shard_ops)
        batch = windows_of(queries[:windows * WINDOW])
        put(
            "shard.proc_batch_ms",
            _p50_ms(proc.query_batch, batch, len(batch)) / WINDOW, "ms", len(batch),
        )
    finally:
        proc.close()
    proc = ShardedQueryEngine(
        tree=tree, shards=1, config=CONFIG, options=OPTIONS, processes=True
    )
    prefixes.append(proc.name_prefix)
    try:
        proc1_ms = put(
            "shard.proc1_query_ms", _p50_ms(proc.query, queries, shard_ops), "ms", shard_ops
        )
    finally:
        proc.close()
    put("shard.x1_vs_thread", query_ms / proc1_ms, "ratio")
    complaints += [f"leaked /dev/shm/{name}" for name in shm_leaks(prefixes)]

    # -- writes: what one insert costs the next reader ------------------
    extra = query_points_uniform(15, seed=seed + 5)
    stalls, rereads = [], []
    for j in range(7):
        started = now()
        engine.insert(Rect.from_point(extra[j]), scale.n + j)
        written = now()
        engine.query(queries[j])
        done = now()
        stalls.append(1000.0 * (done - started))
        rereads.append(1000.0 * (done - written))
    put("service.write_stall_ms", statistics.median(stalls), "ms", len(stalls))
    put("service.repack_ms", statistics.median(rereads) - query_ms, "ms", len(rereads))
    engine.close()
    inserts = []
    for j in range(7, 15):
        rect = Rect.from_point(extra[j])
        started = now()
        tree.insert(rect, scale.n + j)
        inserts.append(1000.0 * (now() - started))
    put("rtree.insert_ms", statistics.median(inserts), "ms", len(inserts))
    del tree, ptree, engine, items

    # -- batch kernel and dispatch, on the clustered data ---------------
    points = dataset("clustered", scale.n, seed)
    batch = near_windows(points, scale, seed)
    tree = bulk_load(items_of(points), max_entries=MAX_ENTRIES)
    ptree = tree.packed()
    py_ms = put(
        "packed.batch_py_ms",
        _p50_ms(
            lambda w: packed_nearest_batch(ptree, w, k=K, vectorize=False),
            batch, max(4, windows // 2),
        ) / WINDOW,
        "ms", max(4, windows // 2),
    )
    # Without numpy the python loops *are* the batch kernel.
    default_ms = put(
        "packed.batch_np_ms",
        _p50_ms(lambda w: packed_nearest_batch(ptree, w, k=K, vectorize=True), batch, windows)
        / WINDOW if NUMPY_AVAILABLE else py_ms,
        "ms", windows,
    )
    engine = QueryEngine(tree, config=CONFIG, options=OPTIONS)
    batch_ms = put(
        "service.query_batch_ms", _p50_ms(engine.query_batch, batch, windows) / WINDOW,
        "ms", windows,
    )
    put("service.query_batch_self_ms", batch_ms - default_ms, "ms")
    engine.close()
    return batch


async def _parse_us(raw: bytes, count: int) -> List[float]:
    samples = []
    for _ in range(count):
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        started = now()
        await read_request(reader)
        samples.append(1e6 * (now() - started))
    return samples


@contextmanager
def _serving(
    kind: str, scale: Scale, seed: int, complaints: List[str], coalesce: bool = True
) -> Iterator[Tuple[ServerProcess, HttpConn]]:
    """One server subprocess at a time: they all share the one CPU seat."""
    server = ServerProcess(kind, scale.n, seed, coalesce)
    try:
        conn = server.wait_ready()
        try:
            yield server, conn
        finally:
            conn.close()
    finally:
        complaints += server.stop()


def _post(conn: HttpConn, path: str, key: str) -> Callable[[Any], Any]:
    return lambda arg: conn.post(path, {key: arg})


def _front_door(
    seed: int, scale: Scale, seconds: float, solo_ops: int, batch: List[List[Any]],
    put: Callable[..., float], out: Metrics, complaints: List[str],
) -> None:
    queries = uniform_stream(scale, seed)
    body = json.dumps({"point": queries[0]}).encode("ascii")
    raw = (
        f"POST /query HTTP/1.1\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body
    put("server.parse_us", statistics.median(asyncio.run(_parse_us(raw, solo_ops))), "us", solo_ops)

    rtt_ops = max(100, solo_ops // 2)
    with _serving("uniform", scale, seed, complaints, coalesce=False) as (_, conn):
        sample = conn.request("POST", "/query", body)[1]
        put(
            "server.render_us",
            1000.0 * _p50_ms(lambda b: render_response(200, b), [sample], solo_ops),
            "us", solo_ops,
        )
        direct_ms = put(
            "server.direct_rtt_ms", _p50_ms(_post(conn, "/query", "point"), queries, rtt_ops),
            "ms", rtt_ops,
        )
        put("server.door_self_ms", direct_ms - out["service.query_ms"]["value"], "ms")

    with _serving("uniform", scale, seed, complaints) as (server, conn):
        coalesced_ms = put(
            "server.coalesced_rtt_ms",
            _p50_ms(_post(conn, "/query", "point"), queries, rtt_ops), "ms", rtt_ops,
        )
        put("server.coalesce_wait_ms", coalesced_ms - direct_ms, "ms")
        _span_cross_check(conn, queries, put)
        _sweep(server, conn, queries, max(0.3, 0.15 * seconds), put)

    # -- /batch: JSON around the batch kernel ---------------------------
    with _serving("clustered", scale, seed, complaints) as (_, conn):
        sent = sum(len(json.dumps({"points": w}).encode("ascii")) for w in batch)
        received = conn.bytes_in
        batch_ms = put(
            "server.batch_ms_per_query",
            _p50_ms(_post(conn, "/batch", "points"), batch, len(batch)) / WINDOW,
            "ms", len(batch),
        )
        put("server.batch_self_ms", batch_ms - out["service.query_batch_ms"]["value"], "ms")
        total = len(batch) * WINDOW
        put("server.req_bytes_per_query", sent / total, "bytes", total)
        put("server.resp_bytes_per_query", (conn.bytes_in - received) / total, "bytes", total)


def _span_cross_check(conn: HttpConn, queries: Sequence[Any], put: Callable[..., float]) -> None:
    """obs: do the server's own spans account for the client's RTT?"""
    roots: Dict[str, float] = {}
    rtts: Dict[str, float] = {}
    for q in queries[:200]:
        started = now()
        answer = conn.post("/query", {"point": q, "trace": True})
        rtts[answer["trace"]] = 1000.0 * (now() - started)
    for line in conn.request("GET", "/spans")[1].decode("utf-8").splitlines():
        span = json.loads(line)
        if span["name"] == "http.request" and span["trace"] in rtts:
            roots[span["trace"]] = span["ms"]
    put(
        "obs.span_root_over_rtt",
        sum(roots.values()) / sum(rtts[trace] for trace in roots) if roots else 0.0,
        "ratio", len(roots),
    )


def _sweep(
    server: ServerProcess, conn: HttpConn, queries: Sequence[Any], step_s: float,
    put: Callable[..., float],
) -> None:
    """The open-loop sweep: latency against arrival rate."""
    conns = [conn] + [HttpConn(server.port) for _ in range(OPEN_CONNS - 1)]
    max_ok = 0.0
    for rate in SWEEP_RATES:
        count = int(rate * step_s)
        before = scrape(conn)
        loop = open_loop(
            conns, "/query",
            lambda i: json.dumps({"point": queries[i % len(queries)]}).encode("ascii"),
            lambda i, raw: json_ok(json.loads(raw)),
            float(rate), count,
        )
        after = scrape(conn)
        p99 = put(
            f"server.open_p99_ms.r{rate}",
            1000.0 * percentile(loop.latencies, 0.99), "ms", count,
        )
        achieved = (count - 1) / (loop.ends[-1] - loop.start)
        if p99 <= SWEEP_P99_LIMIT_MS and achieved >= 0.97 * rate and loop.failed == 0:
            max_ok = float(rate)
        if rate == 300:
            put("server.sched_lag_p99_ms", 1000.0 * percentile(loop.lags, 0.99), "ms", count)
            flushes = sum(
                after[f"repro_server_coalescer_flush_{why}"]
                - before[f"repro_server_coalescer_flush_{why}"]
                for why in ("full", "timer", "drain")
            )
            put(
                "server.window_fill",
                (
                    after["repro_server_coalescer_requests"]
                    - before["repro_server_coalescer_requests"]
                ) / flushes,
                "queries", int(flushes),
            )
    put("server.max_rate_ok", max_ok, "1/s", len(SWEEP_RATES))
    for extra in conns[1:]:
        extra.close()
