"""The repo's benchmark: six workloads through the three doors, one command.

Two ways in.

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    runs one workload in this process and prints, as the last line of
    standard output, one JSON object ``{"correct", "attempted", "failed",
    "metrics"}`` — the end-to-end metrics with ``--trace 0``, the
    per-layer ladder with ``--trace 1``.  This is what ``BENCHMARK.json``
    names as the command.

``python3 perf/run.py --seed 1995 --out perf/out/result.json [--trace]``
    runs all six, each in a fresh subprocess, certifies that the three
    single-query doors gave byte-identical answers, prints every metric
    by name with its unit, and writes the stamped result for
    ``perf/compare.py``.  ``--selftest`` runs the harness's own tests.

Exits non-zero on a failed certification, a leak, or an invalid
(late-generator) run.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

DEFAULT_SEED = 1995


def _contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _run_one(args: argparse.Namespace) -> int:
    """One workload in this process; the driver's contract."""
    from harness import OUT_DIR, SpanRecorder, host_stamp, reap_resource_tracker
    from workloads import SCALES, run_workload

    contract = _contract()
    recorder = SpanRecorder() if args.trace else None
    result = run_workload(
        args.workload, args.seed, args.seconds, SCALES[args.scale],
        bool(args.trace), recorder,
    )
    complaints: List[str] = result["complaints"]
    metrics = result["metrics"]
    if recorder is not None:
        from ladder import run_ladder, span_metrics

        metrics.update(span_metrics(recorder))
        if args.ladder:
            rungs, problems = run_ladder(
                args.seed, SCALES[args.scale], args.seconds
            )
            metrics.update(rungs)
            complaints += problems
        recorder.flush(OUT_DIR / "spans.jsonl")
    reap_resource_tracker()
    correct = result["failed"] == 0 and not complaints
    result.update(
        correct=correct, seed=args.seed, seconds=args.seconds,
        scale=args.scale, trace=args.trace, stamp=host_stamp(),
    )
    if args.detail:
        Path(args.detail).parent.mkdir(parents=True, exist_ok=True)
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
    for line in complaints:
        print(f"FAIL {args.workload}: {line}", file=sys.stderr)

    wanted = contract["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and (args.ladder or not args.trace):
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {
                "value": metrics[m["name"]]["value"],
                "unit": metrics[m["name"]]["unit"],
            }
            for m in wanted if m["name"] in metrics
        },
    }))
    return 0 if correct else 1


def _spawn(
    name: str, args: argparse.Namespace, trace: int, ladder: int
) -> Optional[Dict[str, Any]]:
    from harness import OUT_DIR

    detail = OUT_DIR / f"{name}.trace{trace}.json"
    detail.unlink(missing_ok=True)
    code = subprocess.run(
        [
            sys.executable, str(PERF_DIR / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--scale", args.scale,
            "--ladder", str(ladder), "--detail", str(detail),
        ],
        stdout=subprocess.DEVNULL,
    ).returncode
    if not detail.exists():
        print(f"FAIL {name}: exited {code} without a result", file=sys.stderr)
        return None
    with open(detail, encoding="utf-8") as handle:
        return json.load(handle)


def _print_metrics(title: str, metrics: Dict[str, Any]) -> None:
    print(f"\n{title}")
    for key in sorted(metrics):
        entry = metrics[key]
        print(
            f"  {key:<34} {entry['value']:>14.6g} {entry['unit']:<8}"
            f" n={entry['samples']}"
        )


def _run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh subprocess; the stamped result file."""
    from harness import host_stamp

    names = [w["name"] for w in _contract()["workloads"]]
    out: Dict[str, Any] = {
        "stamp": host_stamp(), "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "workloads": {}, "ladder": {}, "checks": {},
    }
    good = True
    for name in names:
        result = _spawn(name, args, trace=0, ladder=0)
        if result is None:
            good = False
            continue
        attempted, failed = result["attempted"], result["failed"]
        result["metrics"]["failed_frac"] = {
            "value": failed / attempted, "unit": "fraction",
            "samples": attempted,
        }
        good = good and result["correct"]
        out["workloads"][name] = result
        _print_metrics(
            f"{name}: attempted {attempted}, succeeded {attempted - failed}, "
            f"failed {failed}, ops {result['ops']}",
            result["metrics"],
        )
    digests = {
        name: result["digest"]
        for name, result in out["workloads"].items() if result["digest"]
    }
    out["checks"]["digests"] = digests
    out["checks"]["digest_match"] = len(set(digests.values())) == 1
    if not out["checks"]["digest_match"]:
        print(f"FAIL answer digests differ across doors: {digests}", file=sys.stderr)
        good = False

    if args.trace:
        for index, name in enumerate(names):
            last = index == len(names) - 1
            result = _spawn(name, args, trace=1, ladder=int(last))
            if result is None:
                good = False
                continue
            good = good and result["correct"]
            traced = {
                key: value for key, value in result["metrics"].items()
                if key.startswith(("span.", "bench."))
            }
            out["workloads"].get(name, {}).setdefault("traced", {}).update(traced)
            _print_metrics(f"{name} (traced pass)", traced)
            if last:
                out["ladder"] = {
                    key: value for key, value in result["metrics"].items()
                    if key not in traced and "." in key
                }
                _print_metrics("ladder", out["ladder"])

    out["correct"] = good
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(out, handle, indent=1)
        print(f"\nwrote {args.out}")
    print("\nPASS" if good else "\nFAIL")
    return 0 if good else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run only this workload, in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="timed phase per workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also (or, with --workload, instead) run the traced pass and the ladder",
    )
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write the stamped result here (all-workloads mode)")
    parser.add_argument("--selftest", action="store_true", help="run perf/tests")
    parser.add_argument("--ladder", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.selftest:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", str(PERF_DIR / "tests")]
        ).returncode
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program under test (src/repro): {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = (
            float(_contract()["run_seconds"]) if args.scale == "full" else 0.5
        )
    if args.workload:
        return _run_one(args)
    return _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
