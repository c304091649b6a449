"""End-to-end: the command the driver runs, at smoke scale."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import compare

PERF_DIR = Path(__file__).resolve().parents[1]
ROOT = PERF_DIR.parent
RUN = [sys.executable, str(PERF_DIR / "run.py")]


def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_run_of_all_six_finishes_in_30_s_and_compares_clean(tmp_path):
    out = tmp_path / "result.json"
    started = time.monotonic()
    done = subprocess.run(
        RUN + ["--scale", "smoke", "--seed", "7", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 30.0
    result = json.loads(out.read_text())
    names = [w["name"] for w in contract()["workloads"]]
    assert list(result["workloads"]) == names
    assert result["checks"]["digest_match"] is True
    assert len(result["checks"]["digests"]) == 3
    for name in names:
        metrics = result["workloads"][name]["metrics"]
        for metric in contract()["end_to_end"]:
            assert metrics[metric["name"]]["value"] > 0.0
            assert metrics[metric["name"]]["unit"] == metric["unit"]
        assert metrics["failed_frac"]["value"] == 0.0
    assert "write_p50_ms" in result["workloads"]["lib_churn"]["metrics"]
    for key in ("git_sha", "cpus", "python", "numpy", "numpy_version"):
        assert key in result["stamp"]
    assert compare.incomparable(result, result) == []
    # Half a second of load is noisy, so some rows may be "unresolved";
    # a run compared with itself is never better or worse.
    assert {row[5] for row in compare.compare(result, result)} <= {"same", "unresolved"}
    assert "PASS" in done.stdout


def test_one_workload_prints_the_contract_line(tmp_path):
    done = subprocess.run(
        RUN + ["--workload", "lib_solo", "--seed", "3", "--seconds", "0.5",
               "--trace", "0", "--scale", "smoke"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in contract()["end_to_end"]]


def test_without_the_program_it_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        PERF_DIR, tmp_path / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "lib_solo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
