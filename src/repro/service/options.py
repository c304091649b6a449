"""``EngineOptions``: the one engine-construction surface.

``EngineOptions`` says how an engine *runs* — worker pool, result cache,
page buffer, packed routing, slow-query forensics.
:func:`repro.core.batch.nearest_batch`, ``QueryEngine``,
``ResilientEngine`` and ``ShardedQueryEngine`` all take it as
``options=`` and nothing else, so a knob is added once, validated once,
and defaulted once.  An engine that forces a field (the sharded engine is
always packed; ``ResilientEngine``'s inner engine has one worker) applies
:func:`dataclasses.replace` to what it was given.

Two default profiles exist because two call shapes exist:

- :meth:`EngineOptions` (the bare constructor) is the *serving* profile:
  ``workers=4``, result cache on (:data:`DEFAULT_CACHE_SIZE`), no page
  buffer — what ``QueryEngine()`` has always defaulted to.
- :meth:`EngineOptions.batch_defaults` is the *batch* profile:
  ``workers=1``, cache off, ``buffer_pages=64`` — the historical
  sequential ``nearest_batch`` semantics, preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import InvalidParameterError

__all__ = ["EngineOptions", "DEFAULT_CACHE_SIZE"]

#: Result-cache capacity unless the caller chooses otherwise.
DEFAULT_CACHE_SIZE = 4096


@dataclass(frozen=True)
class EngineOptions:
    """How an engine executes — pool size, caching, buffering, routing.

    Orthogonal to :class:`~repro.core.config.QueryConfig`, which says
    what a *query* means; options say how the *engine* runs it.

    Args:
        workers: Worker threads (``QueryEngine``) or the client-side
            submit pool (``ShardedQueryEngine``); ``1`` = run in the
            calling thread.
        cache_size: Result-cache capacity; ``0`` disables caching and
            duplicate coalescing.
        buffer_pages: Per-worker LRU page-buffer capacity (``0`` = plain
            counting).  Only meaningful for disk-backed trees.
        packed: Route queries through the tree's
            :class:`~repro.packed.PackedTree` compile (sharded engines
            are always packed — the slabs *are* the shards).
        slow_query_ms: Slow-query forensics threshold (``None`` = off).
        slow_log: Forensics ring-buffer capacity.
    """

    workers: int = 4
    cache_size: int = DEFAULT_CACHE_SIZE
    buffer_pages: int = 0
    packed: bool = False
    slow_query_ms: Optional[float] = None
    slow_log: int = 64

    def __post_init__(self) -> None:
        _check_count("workers", self.workers, 1)
        _check_count("cache_size", self.cache_size, 0)
        _check_count("buffer_pages", self.buffer_pages, 0)
        if not isinstance(self.packed, bool):
            raise InvalidParameterError(
                f"packed must be a bool, got {self.packed!r}"
            )
        if self.slow_query_ms is not None and self.slow_query_ms < 0:
            raise InvalidParameterError(
                f"slow_query_ms must be >= 0, got {self.slow_query_ms}"
            )
        _check_count("slow_log", self.slow_log, 1)

    @classmethod
    def batch_defaults(cls) -> "EngineOptions":
        """The historical :func:`~repro.core.batch.nearest_batch` profile.

        Sequential, uncached, with the batch's shared 64-page LRU buffer
        — one search per point, legacy page accounting preserved.
        """
        return cls(workers=1, cache_size=0, buffer_pages=64)


def _check_count(name: str, value: object, floor: int) -> None:
    """*value* must be an ``int`` (not a ``bool``) and ``>= floor``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < floor:
        raise InvalidParameterError(
            f"{name} must be an int >= {floor}, got {value!r}"
        )
