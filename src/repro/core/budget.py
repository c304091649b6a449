"""Per-query work budgets: deadlines and page limits with cooperative cancellation.

The paper's branch-and-bound search bounds *space* (pruning), not *time*:
degenerate MBR overlap can force a near-full traversal, and a serving
layer cannot let one pathological query hold a worker hostage.
:class:`Budget` bounds the work itself — wall-clock via ``deadline_ms``
and/or traversal size via ``max_pages`` — and the search kernels check it
cooperatively at node-visit granularity, the same unit the paper counts.

A budget is carried on :class:`~repro.core.config.QueryConfig` (so it
participates in cache keying) and armed per run with :meth:`Budget.start`,
which returns a mutable :class:`BudgetClock`.  Kernels call
:meth:`BudgetClock.charge` once per node they are about to visit; the
first refusal makes the clock's ``reason`` sticky and the kernel unwinds,
folding the MINDIST of everything it abandoned into a *frontier bound* —
a sound lower bound on the squared distance of any object the truncated
search never examined.

Exhaustion policy is the budget's ``on_exhausted`` field:

- ``"truncate"`` (default): return the best-so-far neighbors with
  ``stats.truncated = True``, ``stats.truncation_reason`` and
  ``stats.frontier_sq`` set.  The partial answer is a *sound prefix*:
  every returned neighbor closer than the frontier bound is within the
  query's epsilon band of the true answer at that rank.
- ``"raise"``: raise :class:`~repro.errors.DeadlineExceeded` instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import DeadlineExceeded, InvalidParameterError

__all__ = ["Budget", "BudgetClock", "finish_truncated"]

#: Valid ``on_exhausted`` policies.
VALID_EXHAUSTION = ("truncate", "raise")


@dataclass(frozen=True)
class Budget:
    """An immutable, hashable bound on the work one query may perform.

    Args:
        deadline_ms: Wall-clock allowance in milliseconds (``> 0``), or
            ``None`` for no time limit.
        max_pages: Maximum node visits (``>= 1``), or ``None`` for no
            page limit.  This is the paper's own cost unit, so a page
            budget is deterministic — the same query truncates at the
            same node on every run and on every backend.
        on_exhausted: ``"truncate"`` (partial result flagged
            ``truncated=True``) or ``"raise"``
            (:class:`~repro.errors.DeadlineExceeded`).

    At least one of ``deadline_ms`` / ``max_pages`` must be set.  Being
    frozen and hashable, a budget participates in
    :meth:`QueryConfig.cache_key`, so a truncated result can never be
    served from cache to a caller with a different (or no) budget.
    """

    deadline_ms: Optional[float] = None
    max_pages: Optional[int] = None
    on_exhausted: str = "truncate"

    def __post_init__(self) -> None:
        if self.deadline_ms is None and self.max_pages is None:
            raise InvalidParameterError(
                "Budget requires at least one limit: deadline_ms or max_pages"
            )
        if self.deadline_ms is not None and not self.deadline_ms > 0:
            raise InvalidParameterError(
                f"deadline_ms must be > 0, got {self.deadline_ms}"
            )
        if self.max_pages is not None and (
            not isinstance(self.max_pages, int)
            or isinstance(self.max_pages, bool)
            or self.max_pages < 1
        ):
            raise InvalidParameterError(
                f"max_pages must be an int >= 1, got {self.max_pages!r}"
            )
        if self.on_exhausted not in VALID_EXHAUSTION:
            raise InvalidParameterError(
                f"on_exhausted must be one of {VALID_EXHAUSTION}, "
                f"got {self.on_exhausted!r}"
            )

    def start(self, clock: Callable[[], float] = time.monotonic) -> "BudgetClock":
        """Arm the budget for one query run.

        ``clock`` is injectable (tests pass a fake monotonic clock); the
        deadline is resolved to an absolute instant here so the queue
        wait of a served request does not eat into sibling requests.
        """
        return BudgetClock(self, clock)

    def describe(self) -> str:
        """Compact rendering for config one-liners and slow-query logs."""
        parts = []
        if self.deadline_ms is not None:
            parts.append(f"{self.deadline_ms:g}ms")
        if self.max_pages is not None:
            parts.append(f"{self.max_pages}pg")
        if self.on_exhausted != "truncate":
            parts.append(self.on_exhausted)
        return "budget[" + ",".join(parts) + "]"


class BudgetClock:
    """The mutable per-run state of an armed :class:`Budget`.

    One clock serves one query execution.  Kernels call :meth:`charge`
    immediately before each node visit; the deadline is checked *before*
    a page is spent, so a query that arrives already past its deadline
    performs zero visits.  The first refusal is sticky: ``reason`` stays
    set and every later ``charge`` refuses for the same reason, which
    lets recursive kernels notice exhaustion at every unwinding level
    without threading a flag through their call chain.
    """

    __slots__ = ("budget", "deadline_at", "pages_left", "reason", "_clock")

    def __init__(
        self, budget: Budget, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.budget = budget
        self._clock = clock
        self.deadline_at = (
            None
            if budget.deadline_ms is None
            else clock() + budget.deadline_ms / 1000.0
        )
        self.pages_left = budget.max_pages
        self.reason = ""

    def charge(self) -> str:
        """Request permission for one node visit.

        Returns ``""`` to proceed (and spends one page if the budget has
        a page limit), else the refusal reason — ``"deadline"`` or
        ``"pages"``.
        """
        if self.reason:
            return self.reason
        if self.deadline_at is not None and self._clock() >= self.deadline_at:
            self.reason = "deadline"
            return self.reason
        if self.pages_left is not None:
            if self.pages_left <= 0:
                self.reason = "pages"
                return self.reason
            self.pages_left -= 1
        return ""

    def __repr__(self) -> str:
        state = self.reason or "ok"
        return f"BudgetClock({self.budget.describe()}, {state})"


def finish_truncated(stats, budget: Budget, reason: str, frontier_sq: float):
    """Apply a budget's exhaustion policy at the end of a truncated run.

    In ``"truncate"`` mode, flags *stats* and returns; in ``"raise"``
    mode, raises :class:`~repro.errors.DeadlineExceeded` carrying the
    reason and the frontier bound.  Shared by the object and packed
    kernels so both surfaces behave identically.
    """
    if budget.on_exhausted == "raise":
        raise DeadlineExceeded(
            f"query exhausted its {budget.describe()} ({reason})",
            reason=reason,
            frontier_sq=frontier_sq,
        )
    stats.truncated = True
    stats.truncation_reason = reason
    stats.frontier_sq = frontier_sq
