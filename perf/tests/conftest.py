"""Harness self-tests: run with ``pytest perf/tests`` or ``perf/run.py --selftest``.

Not collected by the repo's tier-1 suite (``testpaths = ["tests"]``).
"""

import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parents[1]
for entry in (PERF_DIR.parent / "src", PERF_DIR):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
