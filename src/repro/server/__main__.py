"""Boot a demo front door over a synthetic uniform dataset.

Example::

    PYTHONPATH=src python -m repro.server --port 8080 --n 20000 \
        --workers 2 --resilient

Then::

    curl -s localhost:8080/query -d '{"point": [0.5, 0.5], "k": 3}'
    curl -s localhost:8080/readyz
    curl -s localhost:8080/stats | head
"""

from __future__ import annotations

import argparse

from repro.datasets import uniform_points
from repro.geometry.rect import Rect
from repro.rtree.tree import RTree
from repro.server import NNServer, ServerConfig
from repro.service.engine import QueryEngine
from repro.service.options import EngineOptions
from repro.service.resilience import ResilientEngine


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server", description=__doc__
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--n", type=int, default=20000,
                        help="synthetic dataset size")
    parser.add_argument("--seed", type=int, default=1995)
    parser.add_argument("--workers", type=int, default=2,
                        help="engine worker threads")
    parser.add_argument("--max-wait-ms", type=float, default=1.0,
                        help="coalescing window ceiling (busy engine only)")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="coalescing batch cap")
    parser.add_argument("--no-coalesce", action="store_true",
                        help="dispatch every request individually")
    parser.add_argument("--resilient", action="store_true",
                        help="wrap the engine in admission control")
    parser.add_argument("--queue", type=int, default=256,
                        help="admission queue capacity (with --resilient)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    tree = RTree(max_entries=8)
    for i, point in enumerate(uniform_points(args.n, seed=args.seed)):
        tree.insert(Rect.from_point(point), payload=i)
    engine = QueryEngine(
        tree,
        options=EngineOptions(packed=True, workers=args.workers),
    )
    if args.resilient:
        engine = ResilientEngine(
            engine=engine, workers=args.workers, queue_capacity=args.queue
        )
    server = NNServer(
        engine,
        ServerConfig(
            host=args.host,
            port=args.port,
            coalesce=not args.no_coalesce,
            max_wait_ms=args.max_wait_ms,
            max_batch=args.max_batch,
        ),
    )
    server.run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
