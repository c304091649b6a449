"""``python -m repro.audit`` — the correctness gate.

Examples::

    python -m repro.audit --cases 500 --seed 1995
    python -m repro.audit --cases 50 --shrink --json failures.json
    python -m repro.audit --demo-broken-prune

Exit code 0 means every check passed (for ``--demo-broken-prune``: the
planted bug *was* caught); 1 means failures (or an uncaught plant).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.audit.runner import AuditConfig, run_audit
from repro.audit.workloads import DISTRIBUTIONS

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.audit",
        description="Differential correctness audit: every k-NN algorithm "
        "and backend, diffed against the exhaustive oracle, with pruning "
        "soundness certification and metamorphic checks.",
    )
    parser.add_argument(
        "--seed", type=int, default=1995,
        help="workload derivation seed (default: 1995)",
    )
    parser.add_argument(
        "--cases", type=int, default=100,
        help="number of randomized cases to run (default: 100)",
    )
    parser.add_argument(
        "--shrink", action="store_true",
        help="delta-debug each failure to a minimal tree + query",
    )
    parser.add_argument(
        "--distribution", choices=DISTRIBUTIONS + ("both",), default="both",
        help="indexed-point distribution (default: both, alternating)",
    )
    parser.add_argument(
        "--max-failures", type=int, default=20,
        help="stop collecting failures past this count (default: 20)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the machine-readable failure report to PATH "
        "('-' for stdout)",
    )
    parser.add_argument(
        "--demo-broken-prune", action="store_true",
        help="plant an unsound prune (test-only hook), verify the audit "
        "catches and shrinks it, then restore; exits 0 iff caught",
    )
    args = parser.parse_args(argv)
    distributions = (
        DISTRIBUTIONS
        if args.distribution == "both"
        else (args.distribution,)
    )
    config = AuditConfig(
        seed=args.seed,
        cases=args.cases,
        distributions=distributions,
        shrink=args.shrink or args.demo_broken_prune,
        max_failures=args.max_failures,
    )

    emit = _human_output(args)
    if args.demo_broken_prune:
        return _demo_broken_prune(config, args, emit)

    report = run_audit(config, progress=emit)
    emit(report.render())
    _write_json(report, args.json)
    return 0 if report.clean else 1


def _human_output(args: argparse.Namespace):
    """Progress/render printer: stderr when stdout carries the JSON."""
    if args.json == "-":
        return lambda *values: print(*values, file=sys.stderr)
    return print


def _demo_broken_prune(
    config: AuditConfig, args: argparse.Namespace, emit=print
) -> int:
    """Prove the auditor catches a planted pruning bug.

    Tightens the DFS prune slack below 1.0 through the test-only seam in
    :mod:`repro.core.knn_dfs` — P1/P3 now discard branches they must
    keep — and demands that a short audit run reports failures, with a
    shrunk minimal repro attached.  The seam is restored unconditionally.
    """
    from repro.core.knn_dfs import _set_prune_slack

    demo = AuditConfig(
        seed=config.seed,
        cases=min(config.cases, 40),
        distributions=config.distributions,
        shrink=True,
        max_failures=3,
    )
    previous = _set_prune_slack(0.25)
    try:
        report = run_audit(demo)
    finally:
        _set_prune_slack(previous)

    emit(report.render())
    _write_json(report, args.json)
    shrunk = [f for f in report.failures if f.shrunk_points is not None]
    if report.failures and shrunk:
        smallest = min(len(f.shrunk_points) for f in shrunk)
        emit(
            f"\nDEMO PASS: planted unsound prune caught "
            f"({len(report.failures)} failure(s); smallest shrunk repro: "
            f"{smallest} point(s))"
        )
        return 0
    emit(
        "\nDEMO FAIL: planted an unsound prune but the audit "
        "reported no shrunk failure"
    )
    return 1


def _write_json(report, path: Optional[str]) -> None:
    if path is None:
        return
    payload = report.to_json()
    if path == "-":
        print(payload)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")


if __name__ == "__main__":
    sys.exit(main())
