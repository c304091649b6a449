"""Capture/replay harness for the engine boundary.

The serving stack's correctness story leans on one invariant: for a
fixed tree state (epoch) and :class:`~repro.core.config.QueryConfig`,
every backend — thread engine, admission-controlled wrapper, sharded
processes — returns the *same* answer as the plain library call.  This
module turns that invariant into an executable artifact:

- :class:`QueryRecorder` wraps any :class:`~repro.service.protocol.Engine`
  and records each query that crosses the boundary — point, serialized
  config, tree epoch, and an order-insensitive-of-backend **answer
  digest** (payloads + squared-distance bits, hashed) — into a
  :class:`CaptureLog`.
- :func:`replay` re-runs a captured stream against any engine and
  compares digests query-by-query, producing a :class:`ReplayReport`
  whose ``stream_digest`` is a single hash over the whole stream —
  two replays of the same log against equivalent backends are
  byte-identical, which is what the CI determinism smoke asserts.

Digests hash ``repr`` of each payload plus the IEEE-754 bit pattern of
each squared distance (``struct.pack("<d", ...)``), so "equivalent" is
*bit*-equivalence of distances, not approximate closeness — the same
standard the differential suites hold the kernels to.  Squared distance
is used rather than the rooted one because it is the value the kernels
actually compare and the packed/object paths agree on it exactly.

Configs round-trip through :func:`config_to_dict` /
:func:`config_from_dict`.  A config carrying an ``object_distance_sq``
hook is rejected at capture time: callables do not serialize, and their
identity-based cache key makes replays incomparable across processes.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.budget import Budget
from repro.core.config import QueryConfig
from repro.core.pruning import PruningConfig
from repro.errors import InvalidParameterError

__all__ = [
    "CaptureLog",
    "CapturedQuery",
    "QueryRecorder",
    "ReplayMismatch",
    "ReplayReport",
    "config_from_dict",
    "config_to_dict",
    "digest_result",
    "replay",
]


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def digest_result(result: Any) -> str:
    """Deterministic hex digest of one answer.

    Accepts an :class:`~repro.core.query.NNResult` or anything
    shape-compatible (a ``Served`` record's ``.result`` should be
    unwrapped by the caller — :class:`QueryRecorder` does).  The digest
    covers neighbor count, payload ``repr`` and the exact bit pattern
    of each squared distance, in rank order.  Stats are deliberately
    excluded: page counts differ across backends (sharding splits the
    traversal), answers must not.
    """
    h = hashlib.sha256()
    neighbors = result.neighbors
    h.update(struct.pack("<q", len(neighbors)))
    for n in neighbors:
        payload = repr(n.payload).encode("utf-8", "backslashreplace")
        h.update(struct.pack("<q", len(payload)))
        h.update(payload)
        h.update(struct.pack("<d", n.distance_squared))
    h.update(b"T" if result.stats.truncated else b"F")
    return h.hexdigest()


# ----------------------------------------------------------------------
# Config serialization
# ----------------------------------------------------------------------
def config_to_dict(cfg: QueryConfig) -> Dict[str, Any]:
    """JSON-safe form of a :class:`QueryConfig` (see module docstring)."""
    if cfg.object_distance_sq is not None:
        raise InvalidParameterError(
            "cannot capture a config with an object_distance_sq hook: "
            "callables do not serialize and replays would be incomparable"
        )
    out: Dict[str, Any] = {
        "k": cfg.k,
        "algorithm": cfg.algorithm,
        "ordering": cfg.ordering,
        "epsilon": cfg.epsilon,
    }
    if cfg.pruning is not None:
        out["pruning"] = {
            "use_p1": cfg.pruning.use_p1,
            "use_p2": cfg.pruning.use_p2,
            "use_p3": cfg.pruning.use_p3,
        }
    if cfg.budget is not None:
        out["budget"] = {
            "deadline_ms": cfg.budget.deadline_ms,
            "max_pages": cfg.budget.max_pages,
            "on_exhausted": cfg.budget.on_exhausted,
        }
    return out


def config_from_dict(data: Dict[str, Any]) -> QueryConfig:
    """Rebuild the exact config :func:`config_to_dict` serialized."""
    pruning = data.get("pruning")
    budget = data.get("budget")
    return QueryConfig(
        k=int(data.get("k", 1)),
        algorithm=data.get("algorithm", "dfs"),
        ordering=data.get("ordering", "mindist"),
        epsilon=float(data.get("epsilon", 0.0)),
        pruning=PruningConfig(**pruning) if pruning is not None else None,
        budget=Budget(**budget) if budget is not None else None,
    )


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CapturedQuery:
    """One recorded boundary crossing."""

    point: Tuple[float, ...]
    config: Dict[str, Any]
    epoch: int
    digest: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "point": list(self.point),
            "config": self.config,
            "epoch": self.epoch,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CapturedQuery":
        return cls(
            point=tuple(float(c) for c in data["point"]),
            config=dict(data["config"]),
            epoch=int(data["epoch"]),
            digest=str(data["digest"]),
        )


class CaptureLog:
    """An ordered stream of :class:`CapturedQuery` records."""

    def __init__(
        self, records: Optional[Iterable[CapturedQuery]] = None
    ) -> None:
        self.records: List[CapturedQuery] = (
            list(records) if records is not None else []
        )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def append(self, record: CapturedQuery) -> None:
        self.records.append(record)

    def dump_jsonl(self, fp: IO[str]) -> int:
        """Write one JSON object per line; returns the record count."""
        for record in self.records:
            fp.write(
                json.dumps(record.to_dict(), separators=(",", ":")) + "\n"
            )
        return len(self.records)

    @classmethod
    def load_jsonl(cls, fp: IO[str]) -> "CaptureLog":
        records: List[CapturedQuery] = []
        for lineno, line in enumerate(fp, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(CapturedQuery.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"malformed capture log at line {lineno}: {exc}"
                ) from exc
        return cls(records)


class QueryRecorder:
    """Record every query an engine answers, transparently.

    Wraps an engine's synchronous ``query`` boundary: answers pass
    through unchanged (``Served`` records included — the digest covers
    the inner result), and each crossing appends a
    :class:`CapturedQuery` to :attr:`log`.  Use as the engine for a
    warm-up run, then :meth:`CaptureLog.dump_jsonl` the stream.

    Only ``query`` records; ``query_batch`` unrolls to per-point records
    so a captured stream is always a flat query sequence (replay has no
    batching opinion — batching must not change answers).
    """

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.log = CaptureLog()

    def _epoch(self) -> int:
        snapshot = getattr(self.engine, "snapshot", None)
        if callable(snapshot):
            return snapshot().epoch
        return 0

    def _record(self, point: Sequence[float], cfg: QueryConfig,
                outcome: Any) -> None:
        result = getattr(outcome, "result", None)
        if result is None or not hasattr(result, "neighbors"):
            result = outcome
        self.log.append(
            CapturedQuery(
                point=tuple(float(c) for c in point),
                config=config_to_dict(cfg),
                epoch=self._epoch(),
                digest=digest_result(result),
            )
        )

    def query(self, point: Sequence[float], **kwargs: Any) -> Any:
        outcome = self.engine.query(point, **kwargs)
        cfg = _resolve_recorded_config(self.engine, kwargs)
        self._record(point, cfg, outcome)
        return outcome

    def query_batch(
        self, points: Sequence[Sequence[float]], **kwargs: Any
    ) -> Any:
        outcomes = self.engine.query_batch(points, **kwargs)
        cfg = _resolve_recorded_config(self.engine, kwargs)
        for point, outcome in zip(points, outcomes):
            self._record(point, cfg, outcome)
        return outcomes

    def __getattr__(self, name: str) -> Any:
        return getattr(self.engine, name)


def _resolve_recorded_config(engine: Any, kwargs: Dict[str, Any]) -> QueryConfig:
    """The effective config of a recorded call (engine default + overrides)."""
    from repro.core.query import resolve_config

    cfg = kwargs.get("config")
    if cfg is None:
        cfg = getattr(engine, "config", None)
    return resolve_config(cfg, kwargs.get("k"))


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayMismatch:
    """One replayed query whose answer differed from the capture."""

    index: int
    point: Tuple[float, ...]
    expected: str
    actual: str


@dataclass
class ReplayReport:
    """Outcome of one :func:`replay` run."""

    total: int = 0
    matched: int = 0
    epoch_skipped: int = 0
    mismatches: List[ReplayMismatch] = field(default_factory=list)
    stream_digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.matched + self.epoch_skipped == self.total

    def render(self) -> str:
        lines = [
            f"replayed  {self.total:>8,}",
            f"matched   {self.matched:>8,}",
            f"skipped   {self.epoch_skipped:>8,}  (epoch mismatch)",
            f"mismatch  {len(self.mismatches):>8,}",
            f"stream    {self.stream_digest}",
        ]
        for miss in self.mismatches[:10]:
            lines.append(
                f"  #{miss.index} at {miss.point}: "
                f"{miss.expected[:16]} != {miss.actual[:16]}"
            )
        if len(self.mismatches) > 10:
            lines.append(f"  ... {len(self.mismatches) - 10} more")
        return "\n".join(lines)


def replay(
    engine: Any,
    log: CaptureLog,
    check_epoch: bool = False,
) -> ReplayReport:
    """Re-run a captured stream against *engine*; compare every digest.

    Each record's config is rebuilt and the query re-executed through
    the engine's plain ``query`` path — the narrowest boundary every
    backend implements, so one log certifies thread, resilient and
    sharded engines alike.  ``Served`` wrappers are unwrapped before
    digesting.

    With ``check_epoch=True``, records whose captured epoch differs
    from the engine's current one are *skipped* (counted, not failed):
    a mutated tree legitimately answers differently.  The default
    replays everything — the caller asserts it rebuilt identical state.

    The report's ``stream_digest`` chains every replayed digest, so two
    equal reports imply identical answer streams, not just equal match
    counts.
    """
    report = ReplayReport()
    stream = hashlib.sha256()
    snapshot = getattr(engine, "snapshot", None)
    current_epoch = snapshot().epoch if callable(snapshot) else 0
    for index, record in enumerate(log):
        report.total += 1
        if check_epoch and record.epoch != current_epoch:
            report.epoch_skipped += 1
            stream.update(b"skip")
            continue
        cfg = config_from_dict(record.config)
        outcome = engine.query(record.point, config=cfg)
        result = getattr(outcome, "result", None)
        if result is None or not hasattr(result, "neighbors"):
            result = outcome
        actual = digest_result(result)
        stream.update(bytes.fromhex(actual))
        if actual == record.digest:
            report.matched += 1
        else:
            report.mismatches.append(
                ReplayMismatch(
                    index=index,
                    point=record.point,
                    expected=record.digest,
                    actual=actual,
                )
            )
    report.stream_digest = stream.hexdigest()
    return report
