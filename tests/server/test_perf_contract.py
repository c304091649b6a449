"""The program ↔ benchmark seam: the ``/stats`` names ``perf/`` reads.

``perf/`` may not be edited by a PR that claims a gain, and it reads
the program only through its doors — for the HTTP workloads, through
``GET /stats``.  ``perf/workloads.py`` turns ``repro_engine_executed``
and ``repro_engine_pages_per_query`` into ``pages_per_query``;
``perf/ladder.py`` computes ``server.window_fill`` as
``Δrequests / (Δflush_full + Δflush_timer + Δflush_drain)``.  A renamed
or never-incremented counter is a ``KeyError``/``ZeroDivisionError`` in
the benchmark run, long after tier-1 went green — so the names and
their arithmetic are pinned here, without importing ``perf/``.
"""

import pytest

from tests.server.conftest import certify

pytestmark = pytest.mark.server

FLUSHES = [
    f"repro_server_coalescer_flush_{why}" for why in ("full", "timer", "drain")
]
READ_BY_PERF = [
    "repro_engine_executed",
    "repro_engine_pages_per_query",
    "repro_server_coalescer_requests",
    *FLUSHES,
]


def _scrape(harness):
    status, _, raw = harness.request("GET", "/stats")
    assert status == 200
    stats = {}
    for line in raw.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            stats[name] = float(value)
    return stats


def test_stats_names_perf_reads_exist_and_count_lone_queries(serve):
    harness = serve()
    before = _scrape(harness)
    for name in READ_BY_PERF:
        assert name in before, f"/stats lost {name}, which perf/ reads"

    lone, k = 12, 3
    for i in range(lone):
        point = (0.05 + 0.07 * i, 0.9 - 0.06 * i)
        status, _, body = harness.request_json(
            "POST", "/query", {"point": list(point), "k": k}
        )
        assert status == 200
        certify(body, point, k, combo="perf-contract")

    after = _scrape(harness)

    def grew(name):
        return after[name] - before[name]

    assert grew("repro_server_coalescer_requests") == lone
    assert grew("repro_engine_executed") == lone
    assert after["repro_engine_pages_per_query"] > 0
    # Every dispatch is counted under exactly one of the three reasons:
    # window_fill's denominator is never zero and never exceeds requests.
    assert 1 <= sum(grew(name) for name in FLUSHES) <= lone
