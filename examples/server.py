#!/usr/bin/env python
"""The asyncio HTTP front door: serve k-NN over real sockets.

``NNServer`` adapts any engine to HTTP/JSON with nothing but the
standard library.  This example boots a server on a background event
loop, talks to every endpoint with ``http.client``, shows micro-batch
coalescing absorbing concurrent singleton queries, and finishes with a
graceful drain.

Architecture and wire contract: docs/SERVING.md.

Run with::

    python examples/server.py
"""

import http.client
import json
import random
import threading

from repro import (
    EngineOptions,
    NNServer,
    Rect,
    ServerConfig,
    ShardedQueryEngine,
)
from repro.obs import MetricsRegistry


def request(port, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw.startswith(b"{") else raw
    finally:
        conn.close()


def main() -> None:
    rng = random.Random(1995)
    items = [
        (Rect.from_point((rng.uniform(0, 1000), rng.uniform(0, 1000))), f"poi-{i}")
        for i in range(4000)
    ]

    # One worker process behind the front door: the coalescer turns
    # singleton /query arrivals into one batched IPC round trip per
    # 1 ms window (docs/SERVING.md explains why few large shards
    # coalesce best).
    engine = ShardedQueryEngine(
        items=items, shards=1, options=EngineOptions(workers=1, cache_size=0)
    )
    registry = MetricsRegistry()
    server = NNServer(engine, ServerConfig(port=0), registry)

    # ``run()`` blocks and installs SIGTERM handlers — production use.
    # Here the server lives on a background loop so the same script can
    # play the client too.
    import asyncio

    started = threading.Event()
    stop = {}

    def serve() -> None:
        async def _main() -> None:
            stop["event"] = asyncio.Event()
            stop["loop"] = asyncio.get_running_loop()
            await server.start()
            started.set()
            await stop["event"].wait()
            await server.shutdown()  # drain: flush coalescer, close engine

        asyncio.run(_main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    started.wait(15)
    port = server.port
    print(f"Serving on 127.0.0.1:{port}")

    status, ready = request(port, "GET", "/readyz")
    print(f"/readyz  -> {status} {ready}")

    status, body = request(
        port, "POST", "/query", {"point": [500.0, 500.0], "k": 3}
    )
    print(f"/query   -> {status}, nearest: {[n['payload'] for n in body['neighbors']]}")

    status, body = request(
        port,
        "POST",
        "/batch",
        {"points": [[100.0, 100.0], [900.0, 900.0]], "k": 2},
    )
    print(f"/batch   -> {status}, {len(body['results'])} results")

    # Concurrent singletons: the 1 ms coalescing window pools them into
    # the engine's packed batch path.
    queries = [[rng.uniform(0, 1000), rng.uniform(0, 1000)] for _ in range(64)]
    results = [None] * len(queries)

    def one(i: int) -> None:
        results[i] = request(port, "POST", "/query", {"point": queries[i], "k": 3})

    threads = [threading.Thread(target=one, args=(i,)) for i in range(len(queries))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    coalesced = sum(1 for _, body in results if body["coalesced"])
    print(f"64 concurrent /query calls: {coalesced} answered from coalesced windows")

    status, exported = request(port, "GET", "/stats")
    for line in exported.decode().splitlines():
        if line.startswith(
            ("repro_server_requests ", "repro_server_coalescer_requests ")
        ):
            print(f"/stats   -> {line}")

    stop["loop"].call_soon_threadsafe(stop["event"].set)
    thread.join(30)
    print("Drained: in-flight finished, coalescer flushed, engine closed.")


if __name__ == "__main__":
    main()
