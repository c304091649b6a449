"""The chaos soak: synthetic overload + injected faults, oracle-certified.

``run_soak`` drives a :class:`~repro.service.resilience.ResilientEngine`
over a :class:`~repro.rtree.disk.DiskRTree` whose page file is a seeded
:class:`~repro.storage.faults.FaultInjectingPageFile`, through three
deterministic segments:

1. **clean overload** — no faults, sustained ~4x queue capacity.  Every
   served non-truncated answer must match the exhaustive oracle within
   its *effective* epsilon band (brownout may widen it); every truncated
   answer must be a sound prefix within its reported frontier.
2. **fault storm** — ``transient_error_prob`` is raised to 1.0, so every
   uncached page load fails until the circuit breaker trips open.
   Results are degraded (subtrees refused without a frontier), so only
   the *subset* and self-consistency invariants are certified.
3. **recovery** — fault probabilities drop back to the background level
   (bit flips only); the breaker's cooldown elapses, it probes
   half-open, and closes.  Background bit flips mean degradation stays
   possible, so subset-level certification continues, while truncated
   answers keep their full frontier certification off (a corrupt-skip
   drops a subtree without folding it into the frontier).

After the drive, the report certifies the **invariants** the resilience
layer promises regardless of load or luck:

- zero oracle violations in each segment's applicable mode;
- request-accounting conservation (every submission lands in exactly one
  terminal counter — see :class:`~repro.service.resilience.ResilienceStats`);
- every future resolved (no stuck callers), every worker exited
  (``close(timeout)`` drained);
- every recorded breaker transition legal, and the storm actually forced
  ``closed -> open`` with a subsequent recovery to ``closed``.

Everything is seeded: same config, same report.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.audit.oracle import (
    check_result,
    check_truncated_result,
    exact_neighbors,
)
from repro.core.budget import Budget
from repro.core.config import QueryConfig
from repro.core.neighbors import Neighbor
from repro.datasets import uniform_points
from repro.errors import AdmissionRejected, InvalidParameterError
from repro.geometry.rect import Rect
from repro.rtree.disk import DiskRTree, build_disk_index
from repro.service.options import EngineOptions
from repro.service.resilience import (
    BrownoutController,
    ResilienceStats,
    ResilientEngine,
)
from repro.storage.breaker import _LEGAL as _LEGAL_TRANSITIONS
from repro.storage.breaker import CircuitBreaker
from repro.storage.faults import FaultInjectingPageFile, FaultPlan
from repro.storage.pagefile import RetryPolicy

__all__ = ["ChaosConfig", "ChaosReport", "run_soak"]


@dataclass(frozen=True)
class ChaosConfig:
    """One fully seeded soak definition.

    ``queries`` is split across the three segments by
    ``storm_fraction``/``recovery_fraction``; the defaults give a soak
    that finishes in seconds, the CI job and the committed baseline run
    ``queries >= 10_000``.
    """

    seed: int = 0
    n_points: int = 4000
    queries: int = 2000
    query_pool: int = 200
    k_choices: Tuple[int, ...] = (1, 4, 10)
    workers: int = 4
    queue_capacity: int = 32
    shed_policy: str = "adaptive-lifo"
    overload_factor: int = 4
    deadline_ms_choices: Tuple[Optional[float], ...] = (None, 5.0, 25.0)
    max_pages_choices: Tuple[Optional[int], ...] = (None, 8, 64)
    queue_timeout_ms: float = 250.0
    quota_rate: Optional[float] = None
    quota_burst: Optional[float] = None
    brownout: bool = True
    page_size: int = 1024
    cache_nodes: int = 8
    bit_flip_prob: float = 0.01
    storm_fraction: float = 0.2
    recovery_fraction: float = 0.3
    breaker_threshold: int = 3
    breaker_cooldown: float = 0.05
    future_timeout: float = 30.0
    close_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.queries < 10:
            raise InvalidParameterError("queries must be >= 10")
        if not 0.0 < self.storm_fraction + self.recovery_fraction < 1.0:
            raise InvalidParameterError(
                "storm_fraction + recovery_fraction must be in (0, 1)"
            )


@dataclass
class ChaosReport:
    """What the soak did and which invariants held."""

    config: ChaosConfig
    submitted: int = 0
    served: int = 0
    served_truncated: int = 0
    shed: int = 0
    failed: int = 0
    violations: List[str] = field(default_factory=list)
    oracle_checked: int = 0
    breaker_transitions: List[Tuple[str, str]] = field(default_factory=list)
    breaker_rejections: int = 0
    pages_skipped: int = 0
    faults_injected: Dict[str, int] = field(default_factory=dict)
    max_brownout_level: int = 0
    wait_p99_ms: float = 0.0
    service_p99_ms: float = 0.0
    elapsed_s: float = 0.0
    stats: Optional[ResilienceStats] = None
    workers_drained: bool = False

    @property
    def passed(self) -> bool:
        return not self.violations and self.workers_drained

    def violation(self, message: str) -> None:
        # Bounded: one pathological soak must not OOM the report.
        if len(self.violations) < 200:
            self.violations.append(message)

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "config": asdict(self.config),
            "submitted": self.submitted,
            "served": self.served,
            "served_truncated": self.served_truncated,
            "shed": self.shed,
            "failed": self.failed,
            "oracle_checked": self.oracle_checked,
            "violations": list(self.violations),
            "breaker_transitions": [list(t) for t in self.breaker_transitions],
            "breaker_rejections": self.breaker_rejections,
            "pages_skipped": self.pages_skipped,
            "faults_injected": dict(self.faults_injected),
            "max_brownout_level": self.max_brownout_level,
            "wait_p99_ms": self.wait_p99_ms,
            "service_p99_ms": self.service_p99_ms,
            "elapsed_s": self.elapsed_s,
            "stats": self.stats.as_dict() if self.stats else None,
            "workers_drained": self.workers_drained,
            "passed": self.passed,
        }
        return out

    def render(self) -> str:
        lines = [
            f"chaos soak: {self.submitted} submitted in "
            f"{self.elapsed_s:.2f}s  (seed {self.config.seed})",
            f"  served     {self.served:>8,}  "
            f"(truncated {self.served_truncated:,})",
            f"  shed       {self.shed:>8,}",
            f"  failed     {self.failed:>8,}",
            f"  oracle     {self.oracle_checked:>8,} answers certified",
            f"  breaker    {len(self.breaker_transitions)} transitions, "
            f"{self.breaker_rejections} loads refused",
            f"  faults     {self.faults_injected}",
            f"  skipped    {self.pages_skipped} pages",
            f"  brownout   peak level {self.max_brownout_level}",
            f"  p99        wait {self.wait_p99_ms:.1f} ms / "
            f"service {self.service_p99_ms:.1f} ms",
            f"  drained    {self.workers_drained}",
        ]
        if self.violations:
            lines.append(f"  VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"    - {v}" for v in self.violations[:20])
            if len(self.violations) > 20:
                lines.append(
                    f"    ... and {len(self.violations) - 20} more"
                )
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _certify(
    report: ChaosReport,
    served,
    query: Sequence[float],
    k: int,
    exact: Sequence[Neighbor],
    segment: str,
    degradation_possible: bool,
) -> None:
    """Route one served answer to the applicable oracle mode."""
    result = served.result
    neighbors = result.neighbors
    combo = f"chaos-{segment}"
    epsilon = served.config.epsilon
    if result.stats.truncated and not degradation_possible:
        # Budget truncation alone: the frontier bound is sound.
        problems = check_truncated_result(
            neighbors, query, k, exact, combo=combo,
            frontier=result.frontier_distance, epsilon=epsilon,
        )
    elif result.stats.truncated or degradation_possible:
        # A corrupt-skip drops subtrees without folding them into any
        # frontier, so only subset + integrity can be promised.
        problems = check_truncated_result(
            neighbors, query, k, exact, combo=combo,
            frontier=0.0, epsilon=epsilon,
        )
    else:
        problems = check_result(
            neighbors, query, k, exact, combo=combo, epsilon=epsilon,
        )
    report.oracle_checked += 1
    for p in problems:
        report.violation(p.describe())


def _drive_segment(
    engine: ResilientEngine,
    report: ChaosReport,
    rng,
    pool: Sequence[Tuple[float, ...]],
    oracle: Dict[Tuple[float, ...], List[Neighbor]],
    cfg: ChaosConfig,
    count: int,
    segment: str,
    degradation_possible: bool,
) -> None:
    """Submit *count* queries in overload-sized waves and certify them."""
    wave = max(1, cfg.queue_capacity * cfg.overload_factor)
    remaining = count
    while remaining > 0:
        batch = min(wave, remaining)
        remaining -= batch
        inflight = []
        for _ in range(batch):
            q = pool[rng.randrange(len(pool))]
            k = cfg.k_choices[rng.randrange(len(cfg.k_choices))]
            deadline = cfg.deadline_ms_choices[
                rng.randrange(len(cfg.deadline_ms_choices))
            ]
            pages = cfg.max_pages_choices[
                rng.randrange(len(cfg.max_pages_choices))
            ]
            budget = (
                Budget(deadline_ms=deadline, max_pages=pages)
                if deadline is not None or pages is not None
                else None
            )
            client = f"c{rng.randrange(4)}"
            fut = engine.submit(q, k=k, budget=budget, client=client)
            inflight.append((fut, q, k))
            report.submitted += 1
        for fut, q, k in inflight:
            try:
                served = fut.result(cfg.future_timeout)
            except AdmissionRejected:
                report.shed += 1
                continue
            except TimeoutError:
                report.violation(
                    f"{segment}: future never resolved within "
                    f"{cfg.future_timeout}s — stuck worker"
                )
                continue
            except Exception as exc:  # DeadlineExceeded in raise mode, I/O
                report.failed += 1
                continue
            report.served += 1
            if served.result.stats.truncated:
                report.served_truncated += 1
            if served.brownout_level > report.max_brownout_level:
                report.max_brownout_level = served.brownout_level
            _certify(
                report, served, q, k, oracle[q][:k], segment,
                degradation_possible,
            )


def run_soak(cfg: ChaosConfig = ChaosConfig()) -> ChaosReport:
    """Run one seeded soak end to end; never raises on invariant failure
    — violations land in the returned report."""
    import random

    report = ChaosReport(config=cfg)
    rng = random.Random(cfg.seed)
    started = time.monotonic()

    points = uniform_points(cfg.n_points, seed=cfg.seed)
    pool = [
        tuple(p)
        for p in uniform_points(cfg.query_pool, seed=cfg.seed + 1)
    ]
    items = [(Rect(p, p), i) for i, p in enumerate(points)]
    kmax = max(cfg.k_choices)
    oracle = {q: exact_neighbors(items, q, kmax) for q in pool}

    plan = FaultPlan(seed=cfg.seed)  # faults off; mutated per segment
    breaker = CircuitBreaker(
        failure_threshold=cfg.breaker_threshold,
        cooldown=cfg.breaker_cooldown,
        max_cooldown=cfg.breaker_cooldown * 4,
    )
    retry = RetryPolicy(
        attempts=2,
        base_delay=0.0002,
        max_delay=0.002,
        jitter="decorrelated",
        max_elapsed=0.05,
        rng=random.Random(cfg.seed + 2),
    )

    tmp = tempfile.NamedTemporaryFile(
        suffix=".rtree", delete=False
    )
    tmp.close()
    path = tmp.name
    storm = int(cfg.queries * cfg.storm_fraction)
    recovery = int(cfg.queries * cfg.recovery_fraction)
    clean = cfg.queries - storm - recovery
    try:
        build_disk_index(items, path, page_size=cfg.page_size).close()
        pages = FaultInjectingPageFile(
            path, page_size=cfg.page_size, plan=plan
        )
        disk = DiskRTree(
            page_file=pages,
            cache_nodes=cfg.cache_nodes,
            on_corrupt="skip",
            retry=retry,
            breaker=breaker,
        )
        engine = ResilientEngine(
            disk,
            config=QueryConfig(k=kmax),
            workers=cfg.workers,
            queue_capacity=cfg.queue_capacity,
            shed_policy=cfg.shed_policy,
            queue_timeout_ms=cfg.queue_timeout_ms,
            quota_rate=cfg.quota_rate,
            quota_burst=cfg.quota_burst,
            brownout=BrownoutController() if cfg.brownout else None,
            breaker=breaker,
            # every answer must be freshly computed
            options=EngineOptions(cache_size=0),
        )
        with warnings.catch_warnings():
            # Injected corruption legitimately warns; the soak certifies
            # the *results*, the warning channel is tested elsewhere.
            warnings.simplefilter("ignore")
            try:
                # Segment 1: clean overload — full-strength certification.
                _drive_segment(
                    engine, report, rng, pool, oracle, cfg, clean,
                    "clean", degradation_possible=False,
                )
                # Segment 2: storm — every page load fails until the
                # breaker trips; subset-level certification only.
                plan.transient_error_prob = 1.0
                _drive_segment(
                    engine, report, rng, pool, oracle, cfg, storm,
                    "storm", degradation_possible=True,
                )
                # Segment 3: recovery — background bit flips only; the
                # breaker must close again.  The soak outruns wall-clock
                # cooldowns, so wait out the longest possible one before
                # driving (the half-open probe needs a chance to fire).
                plan.transient_error_prob = 0.0
                plan.bit_flip_prob = cfg.bit_flip_prob
                time.sleep(cfg.breaker_cooldown * 4)
                _drive_segment(
                    engine, report, rng, pool, oracle, cfg, recovery,
                    "recovery", degradation_possible=True,
                )
            finally:
                report.workers_drained = engine.close(cfg.close_timeout)

        stats = engine.stats()
        report.stats = stats
        if not stats.conserved:
            report.violation(
                "request accounting not conserved: "
                + json.dumps(stats.as_dict())
            )
        if stats.pending or stats.inflight:
            report.violation(
                f"work left behind after close: pending={stats.pending} "
                f"inflight={stats.inflight}"
            )
        if report.served != stats.served:
            report.violation(
                f"caller-observed served {report.served} != engine "
                f"served {stats.served}"
            )

        transitions = [(a, b) for _, a, b in breaker.transitions]
        report.breaker_transitions = transitions
        report.breaker_rejections = breaker.rejections
        for pair in transitions:
            if pair not in _LEGAL_TRANSITIONS:
                report.violation(f"illegal breaker transition {pair}")
        if storm > 0:
            if ("closed", "open") not in transitions:
                report.violation(
                    "storm never tripped the breaker open"
                )
            if ("half-open", "closed") not in transitions:
                report.violation(
                    "breaker never recovered to closed after the storm"
                )
        report.pages_skipped = disk.pages_skipped
        report.faults_injected = dict(pages.faults_injected)
        report.wait_p99_ms = engine.wait_times.percentile(0.99) * 1000.0
        report.service_p99_ms = (
            engine.service_times.percentile(0.99) * 1000.0
        )
        disk.close()
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass
    report.elapsed_s = time.monotonic() - started
    return report
