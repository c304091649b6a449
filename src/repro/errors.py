"""Exception hierarchy for the repro library.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch a single base class.  Input-validation failures raise the
more specific subclasses below, which also derive from the natural builtin
(``ValueError``) so that idiomatic ``except ValueError`` continues to work.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GeometryError",
    "DimensionMismatchError",
    "InvalidRectError",
    "TreeInvariantError",
    "EmptyIndexError",
    "InvalidParameterError",
    "PageFileError",
    "ChecksumError",
    "TornWriteError",
    "TransientIOError",
    "CorruptionWarning",
    "ShardLostError",
    "DeadlineExceeded",
    "AdmissionRejected",
    "QuotaExceeded",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GeometryError(ReproError, ValueError):
    """Base class for geometric input errors."""


class DimensionMismatchError(GeometryError):
    """Two geometric arguments have different dimensionality."""

    def __init__(self, expected: int, actual: int, context: str = "") -> None:
        detail = f" ({context})" if context else ""
        super().__init__(
            f"dimension mismatch: expected {expected}, got {actual}{detail}"
        )
        self.expected = expected
        self.actual = actual
        self.context = context

    def __reduce__(self):
        # The default replays ``args`` — the one formatted message — into
        # an ``__init__`` that takes two ints, so without this the error
        # cannot be unpickled on the far side of a shard worker's pipe.
        return type(self), (self.expected, self.actual, self.context)


class InvalidRectError(GeometryError):
    """A rectangle's lower bound exceeds its upper bound on some axis."""


class TreeInvariantError(ReproError):
    """An R-tree structural invariant was violated (validator failure)."""


class EmptyIndexError(ReproError, ValueError):
    """A query that requires a non-empty index was run on an empty one."""


class InvalidParameterError(ReproError, ValueError):
    """A parameter is outside its documented domain (e.g. ``k < 1``)."""


class PageFileError(ReproError):
    """Corrupt page file or out-of-range page access.

    Base class for every failure of the physical storage layer, so callers
    that guarded disk access with ``except PageFileError`` keep working as
    the corruption taxonomy below grows finer.
    """


class ChecksumError(PageFileError):
    """A page's stored CRC32 does not match its contents.

    Raised by the v2 (``RNN2``) on-disk format when a page read back from
    disk fails checksum verification — a flipped bit, a torn write that
    was later completed with garbage, or any other silent corruption.
    """

    def __init__(self, message: str, page_id: int = -1) -> None:
        super().__init__(message)
        self.page_id = page_id


class TornWriteError(PageFileError):
    """A page write was interrupted partway through.

    In production this surfaces through the atomic-write protocol (the
    target file is never replaced); fault injection raises it directly to
    simulate a crash mid-write.
    """


class TransientIOError(PageFileError, OSError):
    """A transient I/O failure that may succeed on retry.

    Also an :class:`OSError`, mirroring how the failure would surface from
    the operating system (e.g. an intermittent ``EIO``).  The disk R-tree's
    read path retries these with bounded exponential backoff.
    """


class ShardLostError(ReproError):
    """A shard worker process died (or its pipe broke) mid-request.

    Internal to :class:`~repro.shard.ShardedQueryEngine`: the engine
    catches it per shard and degrades the merged answer — the result
    comes back ``truncated=True`` with ``truncation_reason="shard-lost"``
    and the dead shard's MBR MINDIST folded into the frontier bound, so
    :func:`~repro.audit.check_truncated_result` can certify it.  It only
    escapes to callers when *every* shard is unreachable.
    """


class DeadlineExceeded(ReproError):
    """A query exhausted its :class:`~repro.core.budget.Budget`.

    Raised only when the budget was built with ``on_exhausted="raise"``;
    the default ``"truncate"`` mode returns a partial result flagged
    ``truncated=True`` instead.  ``reason`` is ``"deadline"`` or
    ``"pages"``; ``frontier_sq`` is a sound lower bound on the squared
    distance of anything the truncated search did not examine.
    """

    def __init__(
        self,
        message: str,
        reason: str = "deadline",
        frontier_sq: float = float("inf"),
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.frontier_sq = frontier_sq


class AdmissionRejected(ReproError):
    """The admission controller shed this request before execution.

    ``reason`` names the shed path: ``"queue_full"``, ``"expired"``,
    ``"shutdown"``, or ``"quota"`` (the latter via the
    :class:`QuotaExceeded` subclass).
    """

    def __init__(self, message: str, reason: str = "queue_full") -> None:
        super().__init__(message)
        self.reason = reason


class QuotaExceeded(AdmissionRejected):
    """A per-client token-bucket quota rejected this request."""

    def __init__(self, message: str) -> None:
        super().__init__(message, reason="quota")


class CorruptionWarning(UserWarning):
    """Emitted when a corrupt page is skipped instead of raising.

    A :class:`~repro.rtree.disk.DiskRTree` opened with
    ``on_corrupt="skip"`` degrades gracefully: unreadable subtrees are
    dropped from results, but never silently — each newly skipped page
    warns once, and per-query counts appear in the search stats.
    """
