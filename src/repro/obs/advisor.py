"""The advisor: windowed metrics → structured operational recommendations.

An R-tree deployment degrades in ways its own counters make visible
long before answers get slow enough to page anyone: insert churn
fragments node MBRs (pages/query climbs against a steady workload), a
drifting query distribution concentrates load on one spatial shard
(per-shard page deltas skew), a shrinking cache stops earning its
memory (hit rate falls).  The advisor watches a
:class:`~repro.obs.registry.MetricsRegistry` through periodic
:meth:`Advisor.observe` snapshots and turns *windowed deltas* — not raw
cumulative counters — into :class:`Recommendation` records:

- ``re-pack`` / ``re-bulk-load`` — pages/query in the recent half of
  the window drifted above the early half by ``drift_ratio``: the tree
  shape no longer fits the workload; rebuild via bulk load (STR) or
  re-pack the slab.
- ``shard-rebalance`` — one shard's share of page work exceeds
  ``skew_ratio`` times the mean: the space partition no longer matches
  the query distribution; re-plan shards against a fresh sample.
- ``cache-tune`` — hit rate below ``min_hit_rate`` on a meaningful
  query volume: the result cache is not earning its keep (or is sized
  below the working set).

Every rule requires ``min_queries`` of *new* work inside the window
before it may fire — an idle system generates no advice — and each
recommendation carries the numeric evidence it fired on, so the test
suite (and an operator) can audit the verdict rather than trust it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import InvalidParameterError

__all__ = ["Advisor", "Recommendation"]


@dataclass(frozen=True)
class Recommendation:
    """One piece of structured advice (kind + evidence, not prose only)."""

    kind: str  # "re-pack" | "re-bulk-load" | "shard-rebalance" | ...
    severity: str  # "info" | "warn"
    message: str
    evidence: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "evidence": dict(self.evidence),
        }


class Advisor:
    """Watches windowed registry readings; emits recommendations.

    Args:
        registry: The :class:`~repro.obs.registry.MetricsRegistry` the
            serving stack publishes into (engine stats under
            ``engine.*``, per-shard gauges under ``shards.*`` — the
            standard wiring of ``register_metrics`` /
            :class:`~repro.server.app.NNServer`).
        window: Snapshots retained; rules compare the early half of the
            window against the recent half, so advice reflects *drift
            inside the window*, not all-time history.
        drift_ratio: Pages/query growth (recent/early) that triggers the
            re-pack advice.
        skew_ratio: Max-shard/mean-shard page-delta ratio that triggers
            the rebalance advice.
        min_hit_rate: Cache hit-rate floor.
        min_queries: New queries that must land inside the window before
            any rule may fire.
    """

    def __init__(
        self,
        registry: Any,
        window: int = 8,
        drift_ratio: float = 1.5,
        skew_ratio: float = 2.0,
        min_hit_rate: float = 0.1,
        min_queries: int = 100,
    ) -> None:
        if window < 2:
            raise InvalidParameterError(
                f"window must be >= 2 snapshots, got {window}"
            )
        if drift_ratio <= 1.0:
            raise InvalidParameterError(
                f"drift_ratio must be > 1, got {drift_ratio}"
            )
        if skew_ratio <= 1.0:
            raise InvalidParameterError(
                f"skew_ratio must be > 1, got {skew_ratio}"
            )
        self.registry = registry
        self.window = window
        self.drift_ratio = drift_ratio
        self.skew_ratio = skew_ratio
        self.min_hit_rate = min_hit_rate
        self.min_queries = min_queries
        self._snapshots: Deque[Dict[str, float]] = deque(maxlen=window)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(self) -> None:
        """Take one numeric snapshot of the registry (call periodically)."""
        flat: Dict[str, float] = {}
        for name, value in self.registry.collect().items():
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                flat[name] = float(value)
        self._snapshots.append(flat)

    @property
    def snapshots(self) -> int:
        return len(self._snapshots)

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    def recommendations(self) -> List[Recommendation]:
        """Evaluate every rule over the current window."""
        if len(self._snapshots) < 2:
            return []
        first = self._snapshots[0]
        mid = self._snapshots[len(self._snapshots) // 2]
        last = self._snapshots[-1]
        out: List[Recommendation] = []
        out.extend(self._pages_drift(first, mid, last))
        out.extend(self._shard_skew(first, last))
        out.extend(self._cache_hit_rate(first, last))
        return out

    def render(self) -> str:
        recs = self.recommendations()
        if not recs:
            return "advisor: no recommendations"
        lines = []
        for rec in recs:
            evidence = " ".join(
                f"{k}={v:.3g}" for k, v in sorted(rec.evidence.items())
            )
            lines.append(f"[{rec.severity}] {rec.kind}: {rec.message}"
                         f"  ({evidence})")
        return "\n".join(lines)

    # -- pages/query drift --------------------------------------------
    def _pages_drift(
        self,
        first: Dict[str, float],
        mid: Dict[str, float],
        last: Dict[str, float],
    ) -> List[Recommendation]:
        early = _pages_per_query_delta(first, mid)
        recent = _pages_per_query_delta(mid, last)
        if early is None or recent is None:
            return []
        (early_ppq, early_n) = early
        (recent_ppq, recent_n) = recent
        if early_n + recent_n < self.min_queries or early_ppq <= 0:
            return []
        ratio = recent_ppq / early_ppq
        if ratio < self.drift_ratio:
            return []
        return [
            Recommendation(
                kind="re-pack",
                severity="warn",
                message=(
                    "pages/query drifted up "
                    f"{ratio:.2f}x inside the window — the tree shape no "
                    "longer fits the workload; re-pack the slab or "
                    "re-bulk-load (STR) from the live data"
                ),
                evidence={
                    "early_pages_per_query": early_ppq,
                    "recent_pages_per_query": recent_ppq,
                    "ratio": ratio,
                    "queries": early_n + recent_n,
                },
            )
        ]

    # -- shard balance -------------------------------------------------
    def _shard_skew(
        self, first: Dict[str, float], last: Dict[str, float]
    ) -> List[Recommendation]:
        deltas: List[Tuple[int, float]] = []
        requests = 0.0
        for name, end in last.items():
            if not name.startswith("shards.shard") or not name.endswith(
                ".pages"
            ):
                continue
            try:
                shard = int(name[len("shards.shard"):-len(".pages")])
            except ValueError:
                continue
            deltas.append((shard, max(0.0, end - first.get(name, 0.0))))
            req_name = f"shards.shard{shard}.requests"
            requests += max(
                0.0, last.get(req_name, 0.0) - first.get(req_name, 0.0)
            )
        if len(deltas) < 2 or requests < self.min_queries:
            return []
        pages = [delta for _, delta in deltas]
        mean = sum(pages) / len(pages)
        if mean <= 0:
            return []
        hot_shard, hot_pages = max(deltas, key=lambda item: item[1])
        ratio = hot_pages / mean
        if ratio < self.skew_ratio:
            return []
        return [
            Recommendation(
                kind="shard-rebalance",
                severity="warn",
                message=(
                    f"shard {hot_shard} absorbed {ratio:.2f}x the mean "
                    "page work this window — the space partition no "
                    "longer matches the query distribution; re-plan "
                    "shards against a fresh workload sample"
                ),
                evidence={
                    "hot_shard": float(hot_shard),
                    "hot_pages": hot_pages,
                    "mean_pages": mean,
                    "ratio": ratio,
                    "shards": float(len(deltas)),
                },
            )
        ]

    # -- cache hit rate ------------------------------------------------
    def _cache_hit_rate(
        self, first: Dict[str, float], last: Dict[str, float]
    ) -> List[Recommendation]:
        queries = last.get("engine.queries", 0.0) - first.get(
            "engine.queries", 0.0
        )
        hits = last.get("engine.cache_hits", 0.0) - first.get(
            "engine.cache_hits", 0.0
        )
        if queries < self.min_queries:
            return []
        rate = hits / queries if queries else 0.0
        if rate >= self.min_hit_rate:
            return []
        return [
            Recommendation(
                kind="cache-tune",
                severity="info",
                message=(
                    f"result-cache hit rate is {rate:.1%} over the "
                    "window — the cache is not earning its memory; size "
                    "it to the working set or disable it"
                ),
                evidence={"hit_rate": rate, "queries": queries},
            )
        ]


def _pages_per_query_delta(
    a: Dict[str, float], b: Dict[str, float]
) -> Optional[Tuple[float, float]]:
    """Pages/query of the work done *between* snapshots a and b.

    Cumulative pages are reconstructed from the exported mean
    (``pages_per_query * executed``), so the rule sees the interval's
    own traversal cost, not the all-time average the raw gauge reports.
    """
    try:
        pages_a = a["engine.pages_per_query"] * a["engine.executed"]
        pages_b = b["engine.pages_per_query"] * b["engine.executed"]
        executed = b["engine.executed"] - a["engine.executed"]
    except KeyError:
        return None
    if executed <= 0:
        return None
    return (pages_b - pages_a) / executed, executed
