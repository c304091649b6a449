"""Host one ``NNServer`` for the HTTP workloads, in a process of its own.

Launched by ``harness.ServerProcess``.  Builds the dataset from the seed
(the same ``workloads.dataset`` the client's oracle uses), serves it with
the thread engine behind ``ServerConfig`` defaults, and leaves through
``NNServer.run``'s own SIGTERM drain — exit code 0 means a clean drain.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--coalesce", type=int, default=1)
    args = parser.parse_args()

    from repro import NNServer, QueryEngine, ServerConfig

    from harness import settle
    from workloads import CONFIG, OPTIONS, build_tree, dataset

    engine = QueryEngine(
        build_tree(dataset(args.dataset, args.n, args.seed)),
        config=CONFIG, options=OPTIONS,
    )
    settle()
    NNServer(engine, ServerConfig(coalesce=bool(args.coalesce))).run()


if __name__ == "__main__":
    main()
