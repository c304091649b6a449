"""Measurement plumbing shared by the workloads and the ladder.

Everything here watches the program from outside: statistics over
latency samples, the harness's own span recorder, a blocking keep-alive
HTTP client with an open-loop scheduler on top, the brute-force answer
oracle, and the process/shared-memory hygiene checks.  Nothing in this
file is imported by ``src/repro``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import random
import select
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"

now = time.perf_counter

#: Timings are medians over this many equal, contiguous slices of the
#: timed phase: one noisy slice (a GC pass, a descheduled core) moves a
#: single-shot p99 by ~20 % and the median-of-slices by a few percent.
SEGMENTS = 5


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of *samples* (need not be sorted)."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(samples)
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def segments(
    samples: Sequence[Any], count: int = SEGMENTS, multiple: int = 1
) -> List[Sequence[Any]]:
    """Split into *count* contiguous slices of equal length (remainder dropped).

    Slice length is rounded down to a multiple of *multiple*: a workload
    with a periodic event (``lib_churn``'s write every 2,500 reads) passes
    its period, so that every slice holds the same number of events.
    """
    size = len(samples) // count
    if size >= multiple:
        size -= size % multiple
    if size == 0:
        return [samples] if samples else []
    return [samples[i * size:(i + 1) * size] for i in range(count)]


def segment_percentiles(
    samples: Sequence[float], fraction: float, multiple: int = 1
) -> List[float]:
    """The *fraction* percentile within each slice."""
    return [
        percentile(part, fraction)
        for part in segments(samples, multiple=multiple)
    ]


def segment_median(samples: Sequence[float], fraction: float) -> float:
    """Median over slices of the *fraction* percentile within each slice."""
    return statistics.median(segment_percentiles(samples, fraction))


def segment_rates(
    ends: Sequence[float], start: float, weight: int = 1, multiple: int = 1
) -> List[float]:
    """Completions per second within each slice.

    *ends* are completion clock readings in order, *start* the clock at
    the first operation's start; each completion counts *weight* queries.
    """
    rates = []
    previous = start
    for part in segments(ends, multiple=multiple):
        rates.append(len(part) * weight / (part[-1] - previous))
        previous = part[-1]
    return rates


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range over the median (``None`` for fewer than 2 values).

    The same statistic the benchmark's driver applies across runs; here
    it is taken across one run's slices, as that run's own noise.
    """
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


# ----------------------------------------------------------------------
# Spans (the harness's own recorder; spans wrap calls made from perf/)
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent id, request id]``.

    A span's id is its index.  :meth:`begin`/:meth:`end` nest by a stack
    (the parent is whatever span is open); :meth:`add` records a finished
    span with an explicit parent, for requests that overlap in time.
    Kept in memory for the whole run and written once by :meth:`flush`.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._open: List[int] = []

    def begin(self, name: str, request: Optional[int] = None) -> int:
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent][4]
        self.spans.append([name, now(), 0.0, parent, request])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, span: int) -> None:
        self.spans[span][2] = now()
        self._open.remove(span)

    def add(
        self, name: str, start: float, end: float,
        parent: Optional[int], request: int,
    ) -> int:
        self.spans.append([name, start, end, parent, request])
        return len(self.spans) - 1

    def self_times(self) -> List[float]:
        """Per span: its duration minus the part its children cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            edge = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start = max(c_start, edge)
                c_end = min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    edge = c_end
            out.append((end - start) - covered)
        return out

    def median_ms(self, name: str, self_time: bool = False) -> float:
        """Median duration (or self time) of the spans called *name*, ms."""
        values = self.self_times() if self_time else [
            end - start for _, start, end, _, _ in self.spans
        ]
        picked = [
            v for v, span in zip(values, self.spans) if span[0] == name
        ]
        return 1000.0 * statistics.median(picked) if picked else 0.0

    def flush(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, request) in enumerate(
                self.spans
            ):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                    "self_ms": 1000.0 * selfs[index],
                }) + "\n")


# ----------------------------------------------------------------------
# Host stamp
# ----------------------------------------------------------------------
#: CPUs this process may use, read before :func:`pin_to_one_cpu` narrows it.
USABLE_CPUS = len(os.sched_getaffinity(0))


def host_stamp() -> Dict[str, Any]:
    """What makes two results comparable: commit, cores, interpreter, numpy."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "cpus": USABLE_CPUS,
        "python": platform.python_version(),
        "numpy": numpy_version is not None,
        "numpy_version": numpy_version,
    }


def pin_to_one_cpu() -> None:
    """Confine this process, and every process it starts, to one CPU.

    A caller and the process serving it (shard worker, server) take turns:
    one blocks while the other works.  Spread over two virtual CPUs, each
    hand-over wakes a halted CPU, and on a shared host that wake-up costs
    anything from tens to hundreds of microseconds depending on the
    neighbours — round-trip latency then flips between regimes 2x apart,
    within a run and between runs.  On one CPU a hand-over is a context
    switch, and what is left is the CPU work of the code under test, which
    is what a change to it can move.  Children inherit the seat.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reap_resource_tracker() -> None:
    """Stop ``multiprocessing``'s shared-memory bookkeeper and wait for it.

    The tracker is a child process too (started by the sharded engine's
    first segment); left alone it outlives us by a moment.  ``_stop`` is
    private API, so a build without it is simply left to its own exit.
    """
    from multiprocessing import resource_tracker

    stop = getattr(
        getattr(resource_tracker, "_resource_tracker", None), "_stop", None
    )
    if callable(stop):
        stop()


def settle() -> None:
    """The GC policy: collect and freeze what set-up built, GC stays on."""
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# Closed loop (one thread, the next op starts when the previous returned)
# ----------------------------------------------------------------------
class LoopResult:
    """Samples of one timed phase."""

    def __init__(self) -> None:
        self.start = 0.0
        self.latencies: List[float] = []
        self.ends: List[float] = []
        self.writes: List[float] = []
        self.failed = 0
        self.lags: List[float] = []
        self.backlog_max = 0

    @property
    def ops(self) -> int:
        return len(self.latencies)


def closed_loop(
    call: Callable[[Any], Any],
    stream: Sequence[Any],
    ok: Callable[[Any], bool],
    *,
    seconds: float = 0.0,
    ops: Optional[int] = None,
    writer: Optional[Callable[[], None]] = None,
    write_every: int = 0,
    keep: Optional[List[Any]] = None,
    rec: Optional[SpanRecorder] = None,
) -> LoopResult:
    """Call ``call(stream[i])`` back to back for *seconds* (or *ops* calls).

    With *writer*, ``writer()`` runs before every *write_every*-th call
    (the first included, so every period of the loop starts with a write)
    and the write's stall — the write plus the first read after it — is
    recorded in ``writes``.  *keep* collects every answer (certified
    passes only).  *rec* turns the traced pass on: an ``op`` span per
    iteration with the ``door`` call (and any ``write``) as children.
    """
    out = LoopResult()
    latencies, ends, size = out.latencies, out.ends, len(stream)
    i = 0
    op = door = 0
    out.start = now()
    deadline = out.start + seconds
    while True:
        arg = stream[i % size]
        if rec is not None:
            op = rec.begin("op", i)
        write_start = None
        if writer is not None and i % write_every == 0:
            write_start = now()
            if rec is not None:
                door = rec.begin("write")
            writer()
            if rec is not None:
                rec.end(door)
        if rec is not None:
            door = rec.begin("door")
        t0 = now()
        answer = call(arg)
        t1 = now()
        if rec is not None:
            rec.end(door)
        latencies.append(t1 - t0)
        ends.append(t1)
        if write_start is not None:
            out.writes.append(t1 - write_start)
        if not ok(answer):
            out.failed += 1
        if keep is not None:
            keep.append(answer)
        if rec is not None:
            rec.end(op)
        i += 1
        if (i == ops) if ops is not None else (t1 >= deadline):
            return out


# ----------------------------------------------------------------------
# HTTP client: blocking keep-alive connections, open loop on top
# ----------------------------------------------------------------------
class HttpConn:
    """One keep-alive HTTP/1.1 connection over a blocking socket."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""
        self.bytes_in = 0

    def send(self, method: str, path: str, body: bytes = b"") -> None:
        self.sock.sendall(
            (
                f"{method} {path} HTTP/1.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii") + body
        )

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def recv(self) -> Tuple[int, bytes]:
        while b"\r\n\r\n" not in self._buf:
            self._fill()
        head, _, rest = self._buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self._buf = rest
        while len(self._buf) < length:
            self._fill()
        body, self._buf = self._buf[:length], self._buf[length:]
        self.bytes_in += len(body)
        return status, body

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        self.send(method, path, body)
        return self.recv()

    def post(
        self, path: str, payload: Any, rec: Optional[SpanRecorder] = None
    ) -> Optional[Any]:
        """POST *payload* as JSON; the decoded answer, or ``None`` unless 200.

        With *rec* the call is traced as ``send`` / ``wait`` (until the
        first byte is readable) / ``recv`` (read + JSON decode) spans.
        """
        body = json.dumps(payload).encode("ascii")
        if rec is None:
            status, raw = self.request("POST", path, body)
            return json.loads(raw) if status == 200 else None
        span = rec.begin("send")
        self.send("POST", path, body)
        rec.end(span)
        span = rec.begin("wait")
        if not self._buf:
            select.select([self.sock], [], [], 30.0)
        rec.end(span)
        span = rec.begin("recv")
        status, raw = self.recv()
        answer = json.loads(raw) if status == 200 else None
        rec.end(span)
        return answer

    def close(self) -> None:
        self.sock.close()


def scrape(conn: HttpConn) -> Dict[str, float]:
    """``GET /stats`` parsed into ``{metric: value}``."""
    status, body = conn.request("GET", "/stats")
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    out = {}
    for line in body.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


#: The open loop sleeps until this long before a send is due, then polls:
#: a sleeping process is woken hundreds of microseconds late on a shared
#: host, a polling one is not.  The poll does not yield the CPU to the
#: server sharing it: yielding doubled the generator's lag.
_POLL_S = 0.0005

#: A run whose generator-lag p99 exceeds this is invalid.
MAX_LAG_P99_S = 0.001


def open_loop(
    conns: Sequence[HttpConn],
    path: str,
    encode: Callable[[int], bytes],
    decode: Callable[[int, bytes], bool],
    rate: float,
    count: int,
    rec: Optional[SpanRecorder] = None,
) -> LoopResult:
    """Send request *i* at ``start + i / rate`` whatever the server does.

    One thread drives every connection: a request that is due goes out
    on a free connection at once, and waits in line when none is free.
    Latency runs **from the instant the request was due**, so a stall
    charges every request queued behind it.  ``lags`` is how late the
    generator itself was — send time minus the later of the due time and
    the moment a connection became free — and ``backlog_max`` the longest
    line of due-but-unsent requests.  ``decode(i, body)`` parses and
    checks a 200 answer; its cost is inside the latency, as a caller's is.
    """
    out = LoopResult()
    interval = 1.0 / rate
    by_sock = {conn.sock: conn for conn in conns}
    free = list(conns)
    inflight: Dict[Any, Tuple[int, float, float, float]] = {}
    latencies: List[float] = [0.0] * count
    next_i = done = 0
    out.start = start = now() + 0.005
    available_at = start
    while done < count:
        t = now()
        while next_i < count and free and start + next_i * interval <= t:
            due = start + next_i * interval
            out.backlog_max = max(out.backlog_max, int((t - due) * rate))
            conn = free.pop()
            body = encode(next_i)
            sent = now()
            conn.send("POST", path, body)
            t = now()
            out.lags.append(sent - max(due, available_at))
            inflight[conn.sock] = (next_i, due, sent, t)
            next_i += 1
        if next_i < count and free:
            timeout = max(0.0, start + next_i * interval - now() - _POLL_S)
        else:
            timeout = 10.0
        readable = select.select(list(inflight), [], [], timeout)[0]
        if not readable and timeout == 10.0:
            raise TimeoutError("server sent nothing for 10 s")
        for sock in readable:
            index, due, sent, sent_end = inflight.pop(sock)
            conn = by_sock[sock]
            wait_end = now()
            status, body = conn.recv()
            good = status == 200 and decode(index, body)
            end = now()
            if not good:
                out.failed += 1
            latencies[index] = end - due
            out.ends.append(end)
            if rec is not None:
                span = rec.add("op", due, end, None, index)
                door = rec.add("door", sent, end, span, index)
                rec.add("send", sent, sent_end, door, index)
                rec.add("wait", sent_end, wait_end, door, index)
                rec.add("recv", wait_end, end, door, index)
            if not free:
                available_at = end
            free.append(conn)
            done += 1
    out.latencies = latencies
    return out


# ----------------------------------------------------------------------
# Answer certification
# ----------------------------------------------------------------------
#: Answers oracle-checked per workload (cut to 64 without numpy, where
#: each check is a pure-python scan of every point).
ORACLE_SAMPLE = 256


class Oracle:
    """Brute-force k-NN over the raw points, for checking served answers."""

    def __init__(self, points: Sequence[Sequence[float]]) -> None:
        self.points = list(points)
        try:
            import numpy
        except ImportError:
            self._np = self._xs = self._ys = None
        else:
            self._np = numpy
            array = numpy.asarray(self.points, dtype=numpy.float64)
            self._xs = numpy.ascontiguousarray(array[:, 0])
            self._ys = numpy.ascontiguousarray(array[:, 1])

    def extend(self, points: Sequence[Sequence[float]]) -> None:
        """Points the workload inserted (payload = index in ``points``)."""
        self.__init__(self.points + [tuple(p) for p in points])

    def exact(self, query: Sequence[float], k: int) -> List[Any]:
        from repro.baselines import linear_scan_items
        from repro.core.neighbors import Neighbor
        from repro.geometry.rect import Rect

        if self._np is None:
            return linear_scan_items(
                ((Rect.from_point(p), i) for i, p in enumerate(self.points)),
                query, k=k,
            )
        np = self._np
        dx = self._xs - query[0]
        dy = self._ys - query[1]
        dist_sq = dx * dx + dy * dy
        nearest = np.argpartition(dist_sq, k)[:k]
        nearest = nearest[np.lexsort((nearest, dist_sq[nearest]))]
        return [
            Neighbor(
                payload=int(i),
                rect=Rect.from_point(self.points[int(i)]),
                distance=float(np.sqrt(dist_sq[i])),
                distance_squared=float(dist_sq[i]),
            )
            for i in nearest
        ]

    def rejected(
        self,
        queries: Sequence[Sequence[float]],
        answers: Sequence[Sequence[Any]],
        k: int,
        seed: int,
        label: str,
    ) -> List[str]:
        """Oracle-check a seeded sample of *answers*; returns the complaints."""
        from repro.audit.oracle import check_result

        sample = ORACLE_SAMPLE if self._np is not None else 64
        picks = random.Random(seed).sample(
            range(len(answers)), min(sample, len(answers))
        )
        problems = []
        for index in picks:
            for issue in check_result(
                answers[index], queries[index], k,
                self.exact(queries[index], k), label, points=self.points,
            ):
                problems.append(issue.describe())
        return problems


def neighbors_from_json(dicts: Sequence[Dict[str, Any]]) -> List[Any]:
    """The ``neighbors`` array of a ``/query`` answer as ``Neighbor`` objects."""
    from repro.core.neighbors import Neighbor
    from repro.geometry.rect import Rect

    return [
        Neighbor(
            payload=d["payload"],
            rect=Rect.from_point(d["point"]),
            distance=d["distance"],
            distance_squared=d["distance"] ** 2,
        )
        for d in dicts
    ]


def answer_digest(answers: Sequence[Sequence[Any]]) -> str:
    """SHA-256 over the ``(payload, distance)`` stream of *answers*."""
    digest = hashlib.sha256()
    for neighbors in answers:
        for n in neighbors:
            digest.update(repr((n.payload, n.distance)).encode("ascii"))
        digest.update(b";")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Hygiene
# ----------------------------------------------------------------------
def peak_rss_mib(pid: Optional[int] = None) -> float:
    """High-water resident set of *pid* (default: this process), MiB."""
    with open(f"/proc/{pid or os.getpid()}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def shm_leaks(prefixes: Sequence[str]) -> List[str]:
    """Shared-memory segments still present under any of *prefixes*."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(
        name for name in names
        if any(name.startswith(prefix) for prefix in prefixes)
    )


# ----------------------------------------------------------------------
# The server subprocess (perf/server_main.py)
# ----------------------------------------------------------------------
class ServerProcess:
    """``NNServer`` in its own process; talks to it over loopback only."""

    def __init__(self, dataset: str, n: int, seed: int, coalesce: bool = True) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-u", str(PERF_DIR / "server_main.py"),
                "--dataset", dataset, "--n", str(n), "--seed", str(seed),
                "--coalesce", "1" if coalesce else "0",
            ],
            stdout=subprocess.PIPE, text=True,
        )
        self.port = 0
        self.peak_rss = 0.0

    def wait_ready(self) -> HttpConn:
        """Block until ``/readyz`` says yes; returns a live connection."""
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if "listening on" in line:
                self.port = int(line.rsplit(":", 1)[1])
                break
        else:
            raise RuntimeError(
                f"server exited with {self.proc.wait()} before listening"
            )
        conn = HttpConn(self.port)
        status, body = conn.request("GET", "/readyz")
        if status != 200 or not json.loads(body)["ready"]:
            raise RuntimeError(f"/readyz answered {status}: {body!r}")
        return conn

    def stop(self) -> List[str]:
        """SIGTERM, wait for the drain; returns what went wrong (if anything)."""
        if self.proc.poll() is None:
            self.peak_rss = peak_rss_mib(self.proc.pid)
            self.proc.terminate()
        try:
            code = self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return ["server ignored SIGTERM for 30 s and was killed"]
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
        return [] if code == 0 else [f"server exited with {code} on SIGTERM"]
