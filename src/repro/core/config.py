"""The one query configuration shared by every k-NN entry point.

:class:`QueryConfig` says what a query *means* — k, the search
algorithm, the ABL ordering, the P1–P3 prunings, the approximation
slack, an exact object-distance hook and a work budget — as one frozen,
hashable value:

- every entry point (``nearest``, ``NearestNeighborQuery``,
  ``nearest_batch`` and every engine) takes it as ``config=``; ``k=`` is
  the one per-call override;
- validation is *eager* — a typo'd ordering fails at construction with the
  valid choices listed, not three stack frames into ``nearest_dfs``;
- being frozen and hashable, a config can key a result cache (the serving
  layer in :mod:`repro.service` caches on ``(point, config, tree epoch)``).

How an engine *runs* a query is
:class:`~repro.service.options.EngineOptions`.  The access ``tracker`` is
neither: it is per-run instrumentation, not query semantics, and two runs
differing only in their tracker must hit the same cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple

from repro.core.budget import Budget
from repro.core.knn_dfs import ObjectDistance, _check_epsilon, _check_k
from repro.core.pruning import PruningConfig
from repro.errors import InvalidParameterError

__all__ = ["QueryConfig", "VALID_ALGORITHMS", "VALID_ORDERINGS"]

#: Search algorithms the façade dispatches on.
VALID_ALGORITHMS = ("dfs", "best-first")
#: Active-branch-list orderings the DFS search accepts.
VALID_ORDERINGS = ("mindist", "minmaxdist")


@dataclass(frozen=True)
class QueryConfig:
    """Immutable description of *how* a nearest-neighbor query runs.

    Args:
        k: Number of neighbors to return (``>= 1``).
        algorithm: ``"dfs"`` (the paper's branch-and-bound search) or
            ``"best-first"`` (Hjaltason–Samet priority search).
        ordering: DFS active-branch-list metric, ``"mindist"`` or
            ``"minmaxdist"``; ignored by best-first search.
        pruning: DFS pruning strategy toggles (``None`` = all sound ones).
        epsilon: Approximation slack; 0 is exact.
        object_distance_sq: Exact squared object-distance hook.
        budget: Optional per-query work bound
            (:class:`~repro.core.budget.Budget`); ``None`` means
            unbounded, the pre-existing behavior.

    All fields are validated eagerly at construction;
    :class:`~repro.errors.InvalidParameterError` lists the valid choices.
    """

    k: int = 1
    algorithm: str = "dfs"
    ordering: str = "mindist"
    pruning: Optional[PruningConfig] = None
    epsilon: float = 0.0
    object_distance_sq: Optional[ObjectDistance] = None
    budget: Optional[Budget] = None

    def __post_init__(self) -> None:
        _check_k(self.k)
        if self.algorithm not in VALID_ALGORITHMS:
            raise InvalidParameterError(
                f"algorithm must be one of {VALID_ALGORITHMS}, "
                f"got {self.algorithm!r}"
            )
        if self.ordering not in VALID_ORDERINGS:
            raise InvalidParameterError(
                f"ordering must be one of {VALID_ORDERINGS}, "
                f"got {self.ordering!r}"
            )
        if self.pruning is not None and not isinstance(self.pruning, PruningConfig):
            raise InvalidParameterError(
                f"pruning must be a PruningConfig or None, got {self.pruning!r}"
            )
        _check_epsilon(self.epsilon)
        if self.object_distance_sq is not None and not callable(
            self.object_distance_sq
        ):
            raise InvalidParameterError(
                "object_distance_sq must be callable or None, "
                f"got {self.object_distance_sq!r}"
            )
        if self.budget is not None and not isinstance(self.budget, Budget):
            raise InvalidParameterError(
                f"budget must be a Budget or None, got {self.budget!r}"
            )

    def replace(self, **changes: Any) -> "QueryConfig":
        """A copy with *changes* applied (and re-validated)."""
        return replace(self, **changes)

    def cache_key(self) -> Tuple:
        """Hashable identity for result caching.

        Two configs with equal keys produce identical results on the same
        tree state.  The ``object_distance_sq`` hook is keyed by object
        identity: distinct callables never share cache entries even if
        they compute the same function.
        """
        return (
            self.k,
            self.algorithm,
            self.ordering,
            self.pruning,
            self.epsilon,
            None
            if self.object_distance_sq is None
            else id(self.object_distance_sq),
            # The budget is part of result identity: a truncated answer
            # must never be served to a caller with a looser (or no)
            # budget, and brownout-widened budgets form their own tier.
            self.budget,
        )

    def describe(self) -> str:
        """Compact one-line rendering of the non-default fields."""
        parts = [f"k={self.k}", self.algorithm]
        if self.algorithm == "dfs":
            parts.append(self.ordering)
        if self.pruning is not None:
            parts.append(f"pruning={self.pruning}")
        if self.epsilon:
            parts.append(f"epsilon={self.epsilon}")
        if self.object_distance_sq is not None:
            parts.append("object-distance")
        if self.budget is not None:
            parts.append(self.budget.describe())
        return " ".join(parts)
