"""The six workloads: inputs from the seed, one door each, one timed phase.

A workload knows how to build its door from raw points (the cold start
``setup_s`` times), how to send one operation through it, and how to
read the door's own page counters.  ``run_workload`` drives the common
sequence: cold builds → certified pass → timed phase → teardown and
hygiene.  The program under test only ever receives generated inputs;
the seed stops here.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import statistics
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import QueryConfig, QueryEngine, ShardedQueryEngine, bulk_load
from repro.audit.oracle import check_result
from repro.datasets import gaussian_clusters, uniform_points
from repro.datasets.queries import (
    query_points_clustered_sessions,
    query_points_near_data,
    query_points_uniform,
)
from repro.geometry.rect import Rect
from repro.packed.batch import NUMPY_AVAILABLE
from repro.service.options import EngineOptions

from harness import (
    MAX_LAG_P99_S,
    HttpConn,
    LoopResult,
    Oracle,
    ServerProcess,
    SpanRecorder,
    answer_digest,
    closed_loop,
    neighbors_from_json,
    now,
    open_loop,
    peak_rss_mib,
    pin_to_one_cpu,
    percentile,
    pid_alive,
    scrape,
    segment_percentiles,
    segment_rates,
    settle,
    shm_leaks,
    spread,
)

K = 10
WINDOW = 64
#: The 4 KiB-page fanout (what E15 uses).
MAX_ENTRIES = 113
CONFIG = QueryConfig(k=K, algorithm="best-first")
OPTIONS = EngineOptions(workers=1, cache_size=0, packed=True)
#: ``http_open`` arrival rate, requests per second: about a quarter of
#: what the front door sustains, so a request meets an empty window.
OPEN_RATE = 300.0
OPEN_CONNS = 2
#: ``lib_churn``: one insert every this many reads.
WRITE_EVERY = 2500
COLD_BUILDS = 3


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``certified`` operations are answered and checked
    before the timed phase (64-point windows count as one operation)."""

    n: int
    uniform_queries: int
    near_queries: int
    hot_queries: int
    hot_spots: int
    certified: int
    certified_windows: int


SCALES = {
    "full": Scale(200_000, 100_000, 153_600, 75_000, 500, 1000, 16),
    "smoke": Scale(20_000, 5_000, 7_680, 3_750, 500, 200, 4),
}


def dataset(kind: str, n: int, seed: int) -> List[Tuple[float, float]]:
    """``uniform`` or ``clustered`` points; shared with ``server_main``."""
    if kind == "uniform":
        return uniform_points(n, seed=seed)
    if kind == "clustered":
        return gaussian_clusters(n, clusters=32, spread=20, seed=seed + 1)
    raise ValueError(f"unknown dataset {kind!r}")


def uniform_stream(scale: Scale, seed: int) -> List[Tuple[float, float]]:
    """``Q_uniform``."""
    return query_points_uniform(scale.uniform_queries, seed=seed + 2)


def near_windows(points: Sequence[Any], scale: Scale, seed: int) -> List[List[Any]]:
    """``Q_near`` (queries beside the clustered *points*), in 64-point windows."""
    return windows_of(
        query_points_near_data(scale.near_queries, points, noise=5.0, seed=seed + 3)
    )


def hot_stream(points: Sequence[Any], scale: Scale, seed: int) -> List[Any]:
    """``Q_hot``: reads that keep returning to a few hundred hot spots."""
    return query_points_clustered_sessions(
        scale.hot_queries, points, distinct=scale.hot_spots, seed=seed + 4
    )


def items_of(points: Sequence[Sequence[float]]) -> List[Tuple[Rect, int]]:
    """``(rect, payload)`` items; the payload is the point's index."""
    return [(Rect.from_point(p), i) for i, p in enumerate(points)]


def build_tree(points: Sequence[Sequence[float]]) -> Any:
    """points → STR ``bulk_load`` → ``packed()``: the start of every cold start."""
    tree = bulk_load(items_of(points), max_entries=MAX_ENTRIES)
    tree.packed()
    return tree


def result_ok(result: Any) -> bool:
    return len(result.neighbors) == K and not result.stats.truncated


def json_ok(answer: Optional[Dict[str, Any]]) -> bool:
    return (
        answer is not None
        and len(answer["neighbors"]) == K
        and not answer["truncated"]
    )


def windows_of(points: Sequence[Any]) -> List[List[Any]]:
    return [
        list(points[i:i + WINDOW])
        for i in range(0, len(points) - WINDOW + 1, WINDOW)
    ]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One door, one stream.  Subclasses fill in the door."""

    name = ""
    kind = "uniform"
    #: Queries per operation (64 for the window workloads).
    weight = 1
    #: Whether the certified answers feed the cross-door digest.
    digest = False

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.points = dataset(self.kind, scale.n, seed)
        self.stream: List[Any] = self.make_stream()
        self.certified = (
            scale.certified if self.weight == 1 else scale.certified_windows
        )
        self.peak_rss = 0.0

    # -- inputs --------------------------------------------------------
    def make_stream(self) -> List[Any]:
        return uniform_stream(self.scale, self.seed)

    def queries_of(self, arg: Any) -> List[Any]:
        """The query points inside one stream element."""
        return [arg]

    # -- the door ------------------------------------------------------
    def build(self) -> None:
        """Cold start from raw points up to a door that can answer."""
        raise NotImplementedError

    def call(self, arg: Any) -> Any:
        raise NotImplementedError

    def ok(self, answer: Any) -> bool:
        return result_ok(answer)

    def answers_of(self, answer: Any) -> List[List[Any]]:
        """One ``Neighbor`` list per query inside one door answer."""
        return [answer.neighbors]

    def counters(self) -> Tuple[int, int]:
        """``(queries executed, pages read)`` so far, as the door counts them."""
        raise NotImplementedError

    def close(self) -> List[str]:
        """Tear the door down; returns hygiene complaints."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Anything the timed phase must not be the first to do."""

    def recheck(self, oracle: Oracle) -> Tuple[int, List[str]]:
        """After the timed phase: ``(answers checked again, complaints)``."""
        return 0, []

    # -- the timed phase -----------------------------------------------
    def timed(self, seconds: float, rec: Optional[SpanRecorder]) -> LoopResult:
        return closed_loop(
            self.call, self.stream, self.ok, seconds=seconds, rec=rec
        )


class _Engine(Workload):
    """In-process doors: the engine's own stats are the counters."""

    engine: Any = None

    def counters(self) -> Tuple[int, int]:
        stats = self.engine.stats()
        return stats.executed, round(stats.pages_per_query * stats.executed)

    def close(self) -> List[str]:
        self.peak_rss = peak_rss_mib()
        self.engine.close()
        # Drop the tree too: the next cold build must not run (and be
        # garbage-collected) beside the previous one.
        self.engine = self.call = None
        return []


class LibSolo(_Engine):
    name = "lib_solo"
    digest = True

    def build(self) -> None:
        self.engine = QueryEngine(
            build_tree(self.points), config=CONFIG, options=OPTIONS
        )
        self.call = self.engine.query


class LibBatch(_Engine):
    name = "lib_batch"
    kind = "clustered"
    weight = WINDOW

    def make_stream(self) -> List[Any]:
        return near_windows(self.points, self.scale, self.seed)

    def queries_of(self, arg: Any) -> List[Any]:
        return arg

    def build(self) -> None:
        self.engine = QueryEngine(
            build_tree(self.points), config=CONFIG, options=OPTIONS
        )
        self.call = self.engine.query_batch

    def ok(self, answer: Any) -> bool:
        return len(answer) == WINDOW and all(map(result_ok, answer))

    def answers_of(self, answer: Any) -> List[List[Any]]:
        return [result.neighbors for result in answer]


class LibChurn(_Engine):
    name = "lib_churn"

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        self.write_points = uniform_points(1024, seed=seed + 5)
        self.written = 0

    def make_stream(self) -> List[Any]:
        return hot_stream(self.points, self.scale, self.seed)

    def build(self) -> None:
        # The serving profile's default result cache (4096 entries).
        self.engine = QueryEngine(
            build_tree(self.points), config=CONFIG,
            options=EngineOptions(workers=1, packed=True),
        )
        self.call = self.engine.query
        self.written = 0

    def write(self) -> None:
        point = self.write_points[self.written % len(self.write_points)]
        self.engine.insert(
            Rect.from_point(point), len(self.points) + self.written
        )
        self.written += 1

    def warm_up(self) -> None:
        # One write + read, so the first timed write is not also the
        # first recompile the process has ever done.
        self.write()
        self.call(self.stream[0])

    def timed(self, seconds: float, rec: Optional[SpanRecorder]) -> LoopResult:
        return closed_loop(
            self.call, self.stream, self.ok, seconds=seconds, rec=rec,
            writer=self.write, write_every=WRITE_EVERY,
        )

    def recheck(self, oracle: Oracle) -> Tuple[int, List[str]]:
        # The index changed under the timed phase: spot-check it again.
        oracle.extend(self.write_points[:self.written])
        self.points = oracle.points
        queries = self.stream[-64:]
        answers = [self.call(q).neighbors for q in queries]
        return len(queries), oracle.rejected(queries, answers, K, self.seed, self.name)


class ShardProc(_Engine):
    name = "shard_proc"
    digest = True

    def build(self) -> None:
        self.engine = ShardedQueryEngine(
            tree=build_tree(self.points), shards=2, config=CONFIG,
            options=OPTIONS, processes=True,
        )
        self.call = self.engine.query
        self.workers = [p.pid for p in multiprocessing.active_children()]

    def close(self) -> List[str]:
        self.peak_rss = peak_rss_mib() + sum(
            peak_rss_mib(pid) for pid in self.workers if pid_alive(pid)
        )
        prefix = self.engine.name_prefix
        self.engine.close()
        self.engine = self.call = None
        complaints = [
            f"orphan shard worker pid {pid}"
            for pid in self.workers if pid_alive(pid)
        ]
        complaints += [
            f"leaked /dev/shm/{name}" for name in shm_leaks([prefix])
        ]
        return complaints


class _Http(Workload):
    """The front door in its own process; counters come from ``/stats``."""

    path = "/query"

    rec: Optional[SpanRecorder] = None

    def build(self) -> None:
        self.server = ServerProcess(self.kind, self.scale.n, self.seed)
        self.conn = self.server.wait_ready()

    def payload(self, arg: Any) -> Dict[str, Any]:
        return {"point": arg}

    def call(self, arg: Any) -> Optional[Dict[str, Any]]:
        return self.conn.post(self.path, self.payload(arg), self.rec)

    def ok(self, answer: Any) -> bool:
        return json_ok(answer)

    def answers_of(self, answer: Any) -> List[List[Any]]:
        return [neighbors_from_json(answer["neighbors"])]

    def counters(self) -> Tuple[int, int]:
        stats = scrape(self.conn)
        executed = int(stats["repro_engine_executed"])
        return executed, round(stats["repro_engine_pages_per_query"] * executed)

    def close(self) -> List[str]:
        self.conn.close()
        complaints = self.server.stop()
        self.peak_rss = self.server.peak_rss
        return complaints

    def timed(self, seconds: float, rec: Optional[SpanRecorder]) -> LoopResult:
        self.rec = rec  # the client's send / wait / recv spans
        return super().timed(seconds, rec)


class HttpOpen(_Http):
    name = "http_open"
    digest = True

    def timed(self, seconds: float, rec: Optional[SpanRecorder]) -> LoopResult:
        stream, size = self.stream, len(self.stream)
        conns = [self.conn] + [
            HttpConn(self.server.port) for _ in range(OPEN_CONNS - 1)
        ]
        try:
            return open_loop(
                conns, self.path,
                lambda i: json.dumps({"point": stream[i % size]}).encode("ascii"),
                lambda i, body: json_ok(json.loads(body)),
                OPEN_RATE, int(OPEN_RATE * seconds), rec,
            )
        finally:
            for conn in conns[1:]:
                conn.close()


class HttpBatch(_Http):
    name = "http_batch"
    kind = "clustered"
    weight = WINDOW
    path = "/batch"

    def make_stream(self) -> List[Any]:
        return near_windows(self.points, self.scale, self.seed)

    def queries_of(self, arg: Any) -> List[Any]:
        return arg

    def payload(self, arg: Any) -> Dict[str, Any]:
        return {"points": arg}

    def ok(self, answer: Any) -> bool:
        return (
            answer is not None
            and len(answer["results"]) == WINDOW
            and all(map(json_ok, answer["results"]))
        )

    def answers_of(self, answer: Any) -> List[List[Any]]:
        return [neighbors_from_json(r["neighbors"]) for r in answer["results"]]


WORKLOADS: Dict[str, Callable[[int, Scale], Workload]] = {
    cls.name: cls
    for cls in (LibSolo, LibBatch, LibChurn, ShardProc, HttpOpen, HttpBatch)
}


# ----------------------------------------------------------------------
# The common sequence
# ----------------------------------------------------------------------
def _first_answer(work: Workload, expected: List[List[Any]]) -> List[str]:
    """Send the stream's first operation; complaints unless it is right."""
    arg = work.stream[0]
    answer = work.call(arg)
    if not work.ok(answer):
        return [f"{work.name}: first answer failed its own checks"]
    problems = []
    for query, got, want in zip(
        work.queries_of(arg), work.answers_of(answer), expected
    ):
        problems += [
            issue.describe() for issue in check_result(
                got, query, K, want, work.name, points=work.points
            )
        ]
    return problems


def _sliced(values: List[float], unit: str, samples: int) -> Tuple[float, str, int, Optional[float]]:
    """A metric from per-slice (or per-build) values: their median and spread."""
    return statistics.median(values), unit, samples, spread(values)


def _timing_metrics(work: Workload, loop: LoopResult) -> Dict[str, Any]:
    ms = [1000.0 * value for value in loop.latencies]
    # With writes in the loop, slices hold whole write periods.
    period = WRITE_EVERY if loop.writes else 1
    metrics = {
        "qps": _sliced(
            segment_rates(loop.ends, loop.start, work.weight, period), "1/s", loop.ops
        ),
        "op_p50_ms": _sliced(segment_percentiles(ms, 0.50, period), "ms", loop.ops),
        "op_p99_ms": _sliced(segment_percentiles(ms, 0.99, period), "ms", loop.ops),
    }
    if loop.writes:
        metrics["write_p50_ms"] = _sliced(
            [1000.0 * value for value in loop.writes], "ms", len(loop.writes)
        )
    return metrics


def run_workload(
    name: str, seed: int, seconds: float, scale: Scale, trace: bool,
    recorder: Optional[SpanRecorder] = None,
) -> Dict[str, Any]:
    """Run one workload; returns its metrics, counts and complaints.

    Untraced: ``COLD_BUILDS`` cold starts (``setup_s`` is their median),
    a certified pass, then *seconds* of timed load.  Traced: one build,
    the certified pass, then a fifth of *seconds* untraced and a fifth
    with *recorder* on — the pair gives ``bench.trace_overhead_ratio``.
    """
    pin_to_one_cpu()
    work = WORKLOADS[name](seed, scale)
    oracle = Oracle(work.points)
    expected = [oracle.exact(q, K) for q in work.queries_of(work.stream[0])]
    complaints: List[str] = []
    metrics: Dict[str, Tuple[float, str, int, Optional[float]]] = {}
    attempted = failed = 0

    setups = []
    builds = 1 if trace else COLD_BUILDS
    for build in range(builds):
        if build:
            complaints += work.close()
            gc.collect()
        started = now()
        work.build()
        problems = _first_answer(work, expected)
        setups.append(now() - started)
        complaints += problems
        attempted += work.weight
        failed += work.weight if problems else 0
    metrics["setup_s"] = _sliced(setups, "s", len(setups))

    # Certified pass: a fixed prefix of the stream, answers kept and
    # checked, pages counted by the door itself — so the count repeats
    # bit for bit whatever the timed phase's speed.
    kept: List[Any] = []
    executed0, pages0 = work.counters()
    loop = closed_loop(
        work.call, work.stream, work.ok, ops=work.certified, keep=kept
    )
    executed1, pages1 = work.counters()
    attempted += loop.ops * work.weight
    failed += loop.failed * work.weight
    digest = None
    if loop.failed == 0:
        queries = [
            q for arg in work.stream[:work.certified]
            for q in work.queries_of(arg)
        ]
        answers = [a for answer in kept for a in work.answers_of(answer)]
        rejected = oracle.rejected(queries, answers, K, seed, work.name)
        failed += len(rejected)
        complaints += rejected[:5]
        if work.digest:
            digest = answer_digest(answers)
    metrics["pages_per_query"] = (
        (pages1 - pages0) / (executed1 - executed0), "pages",
        executed1 - executed0, None,
    )
    del kept

    work.warm_up()
    settle()
    if trace:
        plain = work.timed(seconds / 5.0, None)
        traced = work.timed(seconds / 5.0, recorder)
        loops = [plain, traced]
        metrics.update(_timing_metrics(work, plain))
        metrics["bench.trace_overhead_ratio"] = (
            percentile(traced.latencies, 0.5) / percentile(plain.latencies, 0.5),
            "ratio", traced.ops, None,
        )
    else:
        loops = [work.timed(seconds, None)]
        metrics.update(_timing_metrics(work, loops[0]))
    for loop in loops:
        attempted += loop.ops * work.weight
        failed += loop.failed * work.weight
    open_info = None
    if loops[0].lags:
        lag_p99 = percentile(loops[0].lags, 0.99)
        open_info = {
            "rate": OPEN_RATE,
            "sched_lag_p99_ms": 1000.0 * lag_p99,
            "backlog_max": loops[0].backlog_max,
        }
        if lag_p99 > MAX_LAG_P99_S:
            complaints.append(
                f"invalid run: load generator lag p99 {1000.0 * lag_p99:.3f} ms"
                f" > {1000.0 * MAX_LAG_P99_S} ms"
            )

    rechecked, rejected = work.recheck(oracle)
    attempted += rechecked
    failed += len(rejected)
    complaints += rejected[:5]

    complaints += work.close()
    metrics["peak_rss_mb"] = (work.peak_rss, "MiB", 1, None)
    return {
        "workload": name,
        "metrics": {
            key: {"value": value, "unit": unit, "samples": samples, "spread": noise}
            for key, (value, unit, samples, noise) in metrics.items()
        },
        "attempted": attempted,
        "failed": failed,
        "complaints": complaints,
        "digest": digest,
        "ops": {
            "certified": work.certified,
            "timed": [loop.ops for loop in loops],
            "weight": work.weight,
            "writes": len(loops[0].writes),
        },
        "open_loop": open_info,
        "numpy_kernel": NUMPY_AVAILABLE,
    }
