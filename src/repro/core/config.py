"""The unified query configuration shared by every k-NN entry point.

Historically ``nearest``, :class:`~repro.core.query.NearestNeighborQuery`,
``nearest_batch`` and the bench harness each grew the same sprawl of
keyword arguments (algorithm, ordering, pruning, epsilon, ...), duplicated
and validated — if at all — deep inside the search kernels.
:class:`QueryConfig` collects those knobs into one frozen, hashable value:

- every entry point accepts ``config=QueryConfig(...)``, and the legacy
  keyword arguments keep working as a thin compatibility shim (explicit
  kwargs override the corresponding ``config`` field);
- validation is *eager* — a typo'd ordering fails at construction with the
  valid choices listed, not three stack frames into ``nearest_dfs``;
- being frozen and hashable, a config can key a result cache (the serving
  layer in :mod:`repro.service` caches on ``(point, config, tree epoch)``).

The access ``tracker`` is deliberately *not* part of the configuration: it
is per-run instrumentation, not query semantics, and two runs differing
only in their tracker must hit the same cache entry.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple

from repro.core.budget import Budget
from repro.core.knn_dfs import ObjectDistance, _check_epsilon
from repro.core.pruning import PruningConfig
from repro.errors import InvalidParameterError

__all__ = [
    "QueryConfig",
    "VALID_ALGORITHMS",
    "VALID_ORDERINGS",
    "warn_legacy_query_kwargs",
]

#: Search algorithms the façade dispatches on.
VALID_ALGORITHMS = ("dfs", "best-first")
#: Active-branch-list orderings the DFS search accepts.
VALID_ORDERINGS = ("mindist", "minmaxdist")

#: Sentinel distinguishing "not passed" from an explicit value in the
#: keyword-compatibility shims.
_UNSET = None

#: Root directory of the installed ``repro`` package; any stack frame
#: whose code file lives under it belongs to the library, not a caller.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _caller_stacklevel() -> int:
    """Stacklevel (for a ``warnings.warn`` issued by our direct caller)
    of the nearest stack frame *outside* the ``repro`` package.

    A fixed ``stacklevel=3`` only attributes the warning correctly when
    user code calls the public entry point directly; any internal
    forwarding layer (``nearest_batch`` routing through the engine, a
    wrapper built on :func:`repro.core.query.nearest`, ...) inserts
    extra ``repro`` frames and the warning lands inside the library —
    which user code cannot silence by line and cannot act on.  This is
    the pre-3.12 backport of ``warnings.warn(skip_file_prefixes=...)``:
    walk outward until the first frame whose file is not under the
    package root, and point the warning there.
    """
    if not hasattr(sys, "_getframe"):  # pragma: no cover - non-CPython
        return 3
    # Relative to warnings.warn in our caller: stacklevel=2 is the
    # caller's caller, which from here is sys._getframe(2).
    level = 2
    while True:
        try:
            frame = sys._getframe(level)
        except ValueError:  # ran off the stack: blame the outermost frame
            return max(2, level - 1)
        filename = os.path.abspath(frame.f_code.co_filename)
        if not filename.startswith(_PACKAGE_ROOT + os.sep):
            return level
        level += 1


def warn_legacy_query_kwargs(api: str, **passed: Any) -> None:
    """Emit one :class:`DeprecationWarning` for legacy query kwargs.

    The entry points (:func:`repro.core.query.nearest`,
    :class:`~repro.core.query.NearestNeighborQuery`,
    :func:`repro.core.batch.nearest_batch`) call this with every legacy
    keyword they received; any that is not ``None`` (i.e. actually
    passed) triggers the warning.  ``k=`` stays first-class and silent —
    only the configuration sprawl (``algorithm=``, ``ordering=``, ...)
    is deprecated in favor of ``config=QueryConfig(...)``.

    The migration path is documented in docs/API.md (§ Migrating to
    ``QueryConfig``); warnings point there.  The stacklevel is computed
    dynamically (:func:`_caller_stacklevel`) so the warning always
    points at the first line *outside* ``repro`` — the caller's code —
    no matter how many internal forwarding frames sit in between.
    """
    legacy = sorted(name for name, value in passed.items() if value is not None)
    if not legacy:
        return
    spelled = ", ".join(f"{name}=" for name in legacy)
    warnings.warn(
        f"{api}: the keyword argument(s) {spelled} are deprecated; pass "
        f"config=QueryConfig(...) instead (docs/API.md, 'Migrating to "
        f"QueryConfig')",
        DeprecationWarning,
        stacklevel=_caller_stacklevel(),
    )


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
        if not isinstance(self.k, int) or self.k < 1:
            raise InvalidParameterError(f"k must be an int >= 1, got {self.k!r}")
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

    def with_overrides(self, **overrides: Any) -> "QueryConfig":
        """Apply the legacy-kwargs compatibility shim.

        Each override that is not ``None`` replaces the corresponding
        field; ``None`` means "not passed, keep the config's value".  This
        is what lets ``nearest(tree, p, k=3, config=cfg)`` mean "``cfg``,
        but with ``k=3``".
        """
        changes = {
            name: value for name, value in overrides.items() if value is not _UNSET
        }
        if not changes:
            return self
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
